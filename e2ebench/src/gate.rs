//! The correctness gate: every run must reproduce the sequential
//! reference's rows and event count bit-for-bit.

use cwcsim::{SimReport, StatRow};

/// The reference a run is checked against, computed once at set-up with
/// `run_sequential` on the same model and configuration.
#[derive(Debug, Clone)]
pub struct Reference {
    bits: Vec<u64>,
    rows: usize,
    /// Reactions fired across all trajectories.
    pub events: u64,
}

impl Reference {
    /// Captures `report` as the reference.
    pub fn of(report: &SimReport) -> Self {
        Reference {
            bits: row_bits(&report.rows),
            rows: report.rows.len(),
            events: report.events,
        }
    }

    /// Checks a run's rows and events against the reference.
    ///
    /// # Errors
    ///
    /// Describes the first difference.
    pub fn check(&self, rows: &[StatRow], events: u64) -> Result<(), String> {
        if events != self.events {
            return Err(format!(
                "events {events} differ from the reference {}",
                self.events
            ));
        }
        if rows.len() != self.rows {
            return Err(format!(
                "{} rows differ from the reference's {}",
                rows.len(),
                self.rows
            ));
        }
        let bits = row_bits(rows);
        match bits.iter().zip(&self.bits).position(|(a, b)| a != b) {
            None if bits.len() == self.bits.len() => Ok(()),
            None => Err("row shapes differ from the reference".into()),
            Some(i) => Err(format!("row word {i} differs from the reference")),
        }
    }
}

/// Flattens rows into the bit patterns of every field, so equality is
/// bit-for-bit (`-0.0` differs from `0.0`, NaNs compare by payload) and
/// field boundaries cannot alias (lengths and option tags are included).
pub fn row_bits(rows: &[StatRow]) -> Vec<u64> {
    let mut out = Vec::new();
    for row in rows {
        out.push(row.time.to_bits());
        out.push(row.instances as u64);
        out.push(row.observables.len() as u64);
        for o in &row.observables {
            out.extend([o.mean, o.variance, o.min, o.max].map(f64::to_bits));
            out.push(o.centroids.len() as u64);
            out.extend(o.centroids.iter().map(|c| c.to_bits()));
            for opt in [o.quantile, o.mode] {
                match opt {
                    Some(v) => out.extend([1, v.to_bits()]),
                    None => out.push(0),
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use cwcsim::{run_sequential, run_simulation, SimConfig, StatEngineKind};

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::new(6, 3.0)
            .quantum(0.5)
            .sample_period(0.25)
            .window(4, 2)
            .engines(vec![
                StatEngineKind::MeanVariance,
                StatEngineKind::Quantile { p: 0.9 },
            ])
            .seed(seed)
    }

    #[test]
    fn a_parallel_run_passes_the_gate() {
        let model = Arc::new(biomodels::birth_death(20.0, 1.0, 5));
        let reference = Reference::of(&run_sequential(Arc::clone(&model), &cfg(1)).unwrap());
        let run = run_simulation(model, &cfg(1)).unwrap();
        reference.check(&run.rows, run.events).unwrap();
    }

    #[test]
    fn a_tampered_row_trips_the_gate() {
        let model = Arc::new(biomodels::birth_death(20.0, 1.0, 5));
        let report = run_sequential(model, &cfg(1)).unwrap();
        let reference = Reference::of(&report);
        let mut rows = report.rows.clone();
        let mean = &mut rows[3].observables[0].mean;
        *mean = f64::from_bits(mean.to_bits() ^ 1);
        assert!(reference.check(&rows, report.events).is_err());
        let mut rows = report.rows.clone();
        rows[0].observables[0].quantile = None;
        assert!(reference.check(&rows, report.events).is_err());
        assert!(reference.check(&report.rows, report.events + 1).is_err());
        assert!(reference.check(&report.rows[1..], report.events).is_err());
    }

    #[test]
    fn a_run_with_a_second_seed_trips_the_first_seeds_gate() {
        let model = Arc::new(biomodels::birth_death(20.0, 1.0, 5));
        let first = Reference::of(&run_sequential(Arc::clone(&model), &cfg(1)).unwrap());
        let second = run_simulation(Arc::clone(&model), &cfg(2)).unwrap();
        assert!(first.check(&second.rows, second.events).is_err());
        // ... and passes the gate of its own seed.
        let own = Reference::of(&run_sequential(model, &cfg(2)).unwrap());
        own.check(&second.rows, second.events).unwrap();
    }

    #[test]
    fn negative_zero_is_not_zero() {
        let mut a = StatRow {
            time: 0.0,
            instances: 1,
            observables: vec![Default::default()],
        };
        let b = a.clone();
        a.observables[0].variance = -0.0;
        assert_ne!(row_bits(&[a]), row_bits(&[b]));
    }
}
