//! Seeded workload inputs: the sentence pool and the open-loop schedule.
//!
//! Everything here is a pure function of `--seed`, built during set-up so
//! the timed loop only clones a pooled [`Value`] and reads a schedule entry.

use tart_model::Value;
use tart_stats::DetRng;

/// Distinct words the sentences draw from.
pub const VOCABULARY: usize = 1_024;
/// Sentences in the pool; the generator cycles through them.
pub const POOL: usize = 65_536;

/// `VOCABULARY` distinct lowercase words: 2–6 random letters plus the word's
/// index in base 26, which makes collisions impossible.
pub fn vocabulary(rng: &mut DetRng) -> Vec<String> {
    (0..VOCABULARY)
        .map(|i| {
            let letters = rng.gen_range_u64(2, 6);
            let mut w: String = (0..letters)
                .map(|_| (b'a' + rng.gen_range_u64(0, 25) as u8) as char)
                .collect();
            let mut n = i;
            loop {
                w.push((b'a' + (n % 26) as u8) as char);
                n /= 26;
                if n == 0 {
                    break;
                }
            }
            w
        })
        .collect()
}

/// The pool of `POOL` sentences, 3–8 words each.
///
/// Eight words keep the sender's estimate (61 µs per word) under the 1 ms
/// logical-clock step, so the merger's virtual-time order is the send order
/// and the single-threaded reference can run in send order.
pub fn sentence_pool(seed: u64) -> Vec<Value> {
    let mut rng = DetRng::seed_from(seed);
    let vocab = vocabulary(&mut rng);
    (0..POOL)
        .map(|_| {
            let words = rng.gen_range_u64(3, 8);
            let sentence = (0..words)
                .map(|_| vocab[rng.gen_range_u64(0, VOCABULARY as u64 - 1) as usize].as_str())
                .collect::<Vec<_>>()
                .join(" ");
            Value::from(sentence)
        })
        .collect()
}

/// One open-loop arrival: when it is due (ns after the phase starts) and on
/// which client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    pub due_ns: u64,
    pub client: u8,
}

/// Independent Poisson streams of `rate_per_client` msgs/s on each of
/// `clients` clients, merged in due order, covering `seconds`.
pub fn poisson_schedule(
    seed: u64,
    clients: u8,
    rate_per_client: f64,
    seconds: f64,
) -> Vec<Arrival> {
    let mut root = DetRng::seed_from(seed ^ 0x9e37_79b9_7f4a_7c15);
    let horizon_ns = (seconds * 1e9) as u64;
    let mut all = Vec::with_capacity((rate_per_client * seconds) as usize * clients as usize);
    for client in 0..clients {
        let mut rng = root.fork(u64::from(client));
        let mut t = 0.0f64;
        loop {
            t += -rng.next_f64_open().ln() / rate_per_client * 1e9;
            if t as u64 >= horizon_ns {
                break;
            }
            all.push(Arrival {
                due_ns: t as u64,
                client,
            });
        }
    }
    all.sort_by_key(|a| (a.due_ns, a.client));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs_and_different_seeds_differ() {
        assert_eq!(sentence_pool(7), sentence_pool(7));
        assert_ne!(sentence_pool(7), sentence_pool(8));
        let a = poisson_schedule(7, 2, 10_000.0, 0.5);
        assert_eq!(a, poisson_schedule(7, 2, 10_000.0, 0.5));
        assert_ne!(a, poisson_schedule(8, 2, 10_000.0, 0.5));
    }

    #[test]
    fn pool_has_the_stated_shape() {
        let pool = sentence_pool(1);
        assert_eq!(pool.len(), POOL);
        for s in &pool {
            let words = s
                .as_str()
                .expect("sentences are strings")
                .split(' ')
                .count();
            assert!((3..=8).contains(&words), "{words} words");
        }
        let mut rng = DetRng::seed_from(1);
        let mut vocab = vocabulary(&mut rng);
        vocab.sort();
        vocab.dedup();
        assert_eq!(vocab.len(), VOCABULARY, "words are distinct");
    }

    #[test]
    fn schedule_is_sorted_and_near_the_offered_rate() {
        let s = poisson_schedule(3, 2, 10_000.0, 1.0);
        assert!(s.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!((18_000..22_000).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.iter().any(|a| a.client == 0) && s.iter().any(|a| a.client == 1));
    }
}
