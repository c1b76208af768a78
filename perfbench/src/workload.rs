//! Inputs made from the seed: the stock universe, the read stream with
//! its oracle answers, and the price-toggle writes.

use idl::{AnswerSet, Engine, EngineError};
use idl_workload::stock::{self, StockUniverse};
use idl_workload::StockConfig;

/// SplitMix64: a small deterministic stream per session.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

pub fn universe(stocks: usize, days: usize, seed: u64) -> StockUniverse {
    stock::generate(&StockConfig { seed, ..StockConfig::sized(stocks, days) })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Point,
    Scan,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Scan => "scan",
        }
    }
}

/// One write: the quote of `stock` on `date` toggles between two
/// prices. Each write deletes the quote and inserts it at the other
/// price through the §7 programs, so it is a real one-quote delta.
pub struct Toggle {
    pub stock: String,
    pub date: String,
    pub prices: [f64; 2],
}

impl Toggle {
    pub fn pick(su: &StockUniverse, seed: u64) -> Toggle {
        let q = &su.quotes[Rng::new(seed, 0x7067).below(su.quotes.len())];
        Toggle {
            stock: q.stock.clone(),
            date: q.date.to_string(),
            prices: [q.price, ((q.price + 1.0) * 100.0).round() / 100.0],
        }
    }

    /// The write that moves the universe into `state` (0 = as generated).
    pub fn write(&self, state: usize) -> String {
        format!(
            "?.dbU.delStk(.stk={s}, .date={d}), .dbU.insStk(.stk={s}, .date={d}, .price={p:?})",
            s = self.stock,
            d = self.date,
            p = self.prices[state],
        )
    }
}

/// The distinct reads and their answers in both toggle states.
pub struct Reads {
    pub points: Vec<String>,
    pub scans: Vec<String>,
    /// `oracle[i][state]`: points first, then scans.
    oracle: Vec<[AnswerSet; 2]>,
}

impl Reads {
    /// Point reads of each stock's history in the unified view, and
    /// higher-order scans over attribute names (`chwab`), relation names
    /// (`ource`) and the higher-order view (`dbO`), with the threshold at
    /// the 98th percentile of the generated prices so every scan has rows.
    /// `twin` is an in-memory engine on the generated universe with the
    /// mapping installed and auto-refresh off; it is left in state 0.
    pub fn build(su: &StockUniverse, toggle: &Toggle, twin: &mut Engine) -> Result<Reads, String> {
        let mut stocks: Vec<&str> = su.quotes.iter().map(|q| q.stock.as_str()).collect();
        stocks.dedup();
        let points: Vec<String> =
            stocks.iter().map(|s| format!("?.dbI.p(.stk={s}, .date=D, .clsPrice=P)")).collect();
        let mut prices: Vec<f64> = su.quotes.iter().map(|q| q.price).collect();
        prices.sort_by(f64::total_cmp);
        let t = prices[(0.98 * (prices.len() - 1) as f64) as usize];
        let scans = vec![
            format!("?.chwab.r(.S>{t:?}, .date=D)"),
            format!("?.ource.S(.clsPrice>{t:?})"),
            format!("?.dbO.S(.clsPrice>{t:?})"),
        ];
        let all: Vec<&String> = points.iter().chain(&scans).collect();
        let err = |e: EngineError| e.to_string();
        twin.refresh_views().map_err(err)?;
        let base: Vec<AnswerSet> =
            all.iter().map(|q| twin.query(q)).collect::<Result<_, _>>().map_err(err)?;
        twin.update(&toggle.write(1)).map_err(err)?;
        twin.refresh_views().map_err(err)?;
        let alt: Vec<AnswerSet> =
            all.iter().map(|q| twin.query(q)).collect::<Result<_, _>>().map_err(err)?;
        twin.update(&toggle.write(0)).map_err(err)?;
        twin.refresh_views().map_err(err)?;
        if let Some(i) = base.iter().position(|a| a.is_empty()) {
            return Err(format!("read {} has no rows", all[i]));
        }
        let oracle = base.into_iter().zip(alt).map(|(b, a)| [b, a]).collect();
        Ok(Reads { points, scans, oracle })
    }

    /// The next read of the mix: ¾ point reads, ¼ scans.
    pub fn pick(&self, rng: &mut Rng) -> (usize, Class) {
        if rng.below(4) < 3 {
            (rng.below(self.points.len()), Class::Point)
        } else {
            (self.points.len() + rng.below(self.scans.len()), Class::Scan)
        }
    }

    /// Distinct reads: the ids `0..len()`.
    pub fn len(&self) -> usize {
        self.oracle.len()
    }

    pub fn src(&self, id: usize) -> &str {
        match id.checked_sub(self.points.len()) {
            None => &self.points[id],
            Some(j) => &self.scans[j],
        }
    }

    /// Whether `answers` is the oracle's answer in either toggle state.
    pub fn check(&self, id: usize, answers: &AnswerSet) -> bool {
        self.oracle[id].iter().any(|a| a == answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(5, 1);
                move |_| r.next()
            })
            .collect();
        let mut r = Rng::new(5, 1);
        assert_eq!(a, (0..4).map(|_| r.next()).collect::<Vec<_>>());
        assert_ne!(Rng::new(5, 1).next(), Rng::new(5, 2).next());
    }

    #[test]
    fn oracle_covers_both_toggle_states() {
        let su = universe(3, 6, 11);
        let toggle = Toggle::pick(&su, 11);
        let mut twin = Engine::from_universe(su.universe.clone()).unwrap();
        twin.set_options(crate::system::engine_options(false));
        idl::transparency::install_two_level_mapping(&mut twin).unwrap();
        let reads = Reads::build(&su, &toggle, &mut twin).unwrap();
        assert_eq!((reads.points.len(), reads.scans.len()), (3, 3));
        let point = reads.points.iter().position(|p| p.contains(&toggle.stock)).unwrap();
        let base = twin.query(reads.src(point)).unwrap();
        assert!(reads.check(point, &base));
        let stats = twin.update(&toggle.write(1)).unwrap();
        assert!(stats.total() > 0, "a toggle is never a no-op");
        twin.refresh_views().unwrap();
        let alt = twin.query(reads.src(point)).unwrap();
        assert_ne!(base, alt);
        assert!(reads.check(point, &alt));
        assert!(!reads.check(point, &AnswerSet::new()));
    }
}
