//! Seeded request streams. Everything a run sends is generated here, before
//! any daemon starts; the daemon only ever sees the generated permutations.

use pops_permutation::{Permutation, SplitMix64};

/// What a workload's requests repeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every request is a fresh uniform random permutation.
    Miss,
    /// Requests are drawn uniformly from a fixed hot set of this size.
    Hot(usize),
}

/// Fresh permutations per warm pass on the miss workloads.
pub const MISS_WARM: usize = 64;

/// Permutations of one size stored compactly (`u16` images), so a long
/// fresh stream fits in memory; expanded one at a time outside any timer.
pub struct PermPool {
    n: usize,
    images: Vec<u16>,
}

impl PermPool {
    fn new(n: usize) -> Self {
        assert!(n <= usize::from(u16::MAX) + 1, "u16 images hold n <= 65536");
        Self {
            n,
            images: Vec::new(),
        }
    }

    /// Appends `count` fresh shuffles of the identity drawn from `rng`.
    fn extend(&mut self, count: usize, rng: &mut SplitMix64) {
        self.images.reserve(self.n * count);
        let mut image: Vec<u16> = Vec::with_capacity(self.n);
        for _ in 0..count {
            image.clear();
            image.extend((0..self.n).map(|v| v as u16));
            rng.shuffle(&mut image);
            self.images.extend_from_slice(&image);
        }
    }

    fn random(n: usize, count: usize, rng: &mut SplitMix64) -> Self {
        let mut pool = Self::new(n);
        pool.extend(count, rng);
        pool
    }

    fn len(&self) -> usize {
        self.images.len() / self.n
    }

    fn get(&self, i: usize) -> Permutation {
        let image = &self.images[i * self.n..(i + 1) * self.n];
        Permutation::new(image.iter().map(|&v| usize::from(v)).collect())
            .expect("the pool holds shuffles of the identity")
    }
}

/// The inputs of one run: a warm pass per daemon launch and the timed
/// request stream.
pub struct Inputs {
    /// Fresh warm passes, one per launch (empty on the hot workload).
    warm: Vec<Vec<Permutation>>,
    stream: Stream,
    /// The generator the stream continues from when a run outpaces it.
    rng: SplitMix64,
    /// Stream requests generated before any daemon started.
    pregenerated: usize,
}

enum Stream {
    Fresh(PermPool),
    Hot {
        set: Vec<Permutation>,
        draws: Vec<u32>,
    },
}

/// A sub-stream seed: the run seed mixed with a fixed tag, so each part of
/// the input is independent of the others and of the wire codec.
fn rng(seed: u64, tag: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Inputs {
    /// Generates `launches` warm passes and the first `requests` requests
    /// of the stream for permutations of `n` elements. The stream depends
    /// only on `(seed, n, mix)`, so two codecs given the same seed send the
    /// same permutations in the same order, however far each gets.
    pub fn generate(seed: u64, n: usize, mix: Mix, launches: usize, requests: usize) -> Self {
        let shape = n as u64;
        let mut inputs = match mix {
            Mix::Miss => {
                let mut warm_rng = rng(seed, 1 + (shape << 8));
                let warm = (0..launches)
                    .map(|_| {
                        let pool = PermPool::random(n, MISS_WARM, &mut warm_rng);
                        (0..MISS_WARM).map(|i| pool.get(i)).collect()
                    })
                    .collect();
                Self {
                    warm,
                    stream: Stream::Fresh(PermPool::new(n)),
                    rng: rng(seed, 2 + (shape << 8)),
                    pregenerated: 0,
                }
            }
            Mix::Hot(size) => {
                let pool = PermPool::random(n, size, &mut rng(seed, 3 + (shape << 8)));
                Self {
                    warm: Vec::new(),
                    stream: Stream::Hot {
                        set: (0..size).map(|i| pool.get(i)).collect(),
                        draws: Vec::new(),
                    },
                    rng: rng(seed, 4 + (shape << 8)),
                    pregenerated: 0,
                }
            }
        };
        inputs.extend(requests);
        inputs.pregenerated = requests;
        inputs
    }

    /// Appends `count` requests to the stream.
    fn extend(&mut self, count: usize) {
        match &mut self.stream {
            Stream::Fresh(pool) => pool.extend(count, &mut self.rng),
            Stream::Hot { set, draws } => {
                let size = set.len();
                draws.extend((0..count).map(|_| self.rng.next_below(size) as u32));
            }
        }
    }

    /// The warm pass of daemon launch `launch`: fresh permutations on the
    /// miss workloads, the whole hot set on the hot one.
    pub fn warm(&self, launch: usize) -> &[Permutation] {
        match &self.stream {
            Stream::Fresh(_) => &self.warm[launch],
            Stream::Hot { set, .. } => set,
        }
    }

    /// Requests in the stream so far.
    pub fn len(&self) -> usize {
        match &self.stream {
            Stream::Fresh(pool) => pool.len(),
            Stream::Hot { draws, .. } => draws.len(),
        }
    }

    /// Stream requests generated during the run, after the pre-generated
    /// ones ran out.
    pub fn generated_late(&self) -> usize {
        self.len() - self.pregenerated
    }

    /// Request `i` of the stream. A run that outpaces the pre-generated
    /// stream extends it here, by a quarter of its first length at a time;
    /// callers ask before they start a round trip's clock.
    pub fn request(&mut self, i: usize) -> Permutation {
        while i >= self.len() {
            self.extend((self.pregenerated / 4).max(1));
        }
        match &self.stream {
            Stream::Fresh(pool) => pool.get(i),
            Stream::Hot { set, draws } => set[draws[i] as usize].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let mut a = Inputs::generate(7, 64, Mix::Miss, 2, 5);
        let mut b = Inputs::generate(7, 64, Mix::Miss, 2, 5);
        let mut c = Inputs::generate(8, 64, Mix::Miss, 2, 5);
        assert_eq!(a.request(4), b.request(4));
        assert_ne!(a.request(4), c.request(4));
        assert_ne!(
            a.warm(0)[0],
            a.warm(1)[0],
            "each launch warms with fresh permutations"
        );
        let stream: Vec<Permutation> = (0..5).map(|i| a.request(i)).collect();
        assert!(a.warm(0).iter().all(|w| !stream.contains(w)));
    }

    #[test]
    fn outpaced_streams_extend_as_if_generated_up_front() {
        for mix in [Mix::Miss, Mix::Hot(8)] {
            let mut short = Inputs::generate(5, 16, mix, 1, 3);
            let mut long = Inputs::generate(5, 16, mix, 1, 40);
            assert!((0..40).all(|i| short.request(i) == long.request(i)));
            assert!(short.generated_late() >= 37);
            assert_eq!(long.generated_late(), 0);
        }
    }

    #[test]
    fn hot_streams_draw_from_the_hot_set() {
        let mut hot = Inputs::generate(3, 16, Mix::Hot(8), 1, 200);
        let set = hot.warm(0).to_vec();
        assert_eq!(set.len(), 8);
        assert!((0..200).all(|i| set.contains(&hot.request(i))));
    }
}
