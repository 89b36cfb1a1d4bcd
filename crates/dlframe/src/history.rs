//! Per-epoch training statistics, mirroring the Keras `History` object.

/// Metrics recorded at the end of one training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub loss: f64,
    /// Training accuracy (classification) or `None` for pure regression.
    pub accuracy: Option<f64>,
    /// Number of batch steps executed in the epoch.
    pub batch_steps: usize,
}

/// Accumulated run history.
#[derive(Debug, Clone, Default)]
pub struct History {
    epochs: Vec<EpochStats>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch record.
    pub fn push(&mut self, stats: EpochStats) {
        self.epochs.push(stats);
    }

    /// All epoch records in order.
    pub fn epochs(&self) -> &[EpochStats] {
        &self.epochs
    }

    /// The most recent epoch record, if any.
    pub fn last(&self) -> Option<&EpochStats> {
        self.epochs.last()
    }

    /// Final training loss, if any epoch ran.
    pub fn final_loss(&self) -> Option<f64> {
        self.last().map(|e| e.loss)
    }

    /// Final training accuracy, if recorded.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.last().and_then(|e| e.accuracy)
    }

    /// Total batch steps across all epochs.
    pub fn total_batch_steps(&self) -> usize {
        self.epochs.iter().map(|e| e.batch_steps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(epoch: usize, loss: f64) -> EpochStats {
        EpochStats {
            epoch,
            loss,
            accuracy: Some(0.5 + epoch as f64 * 0.1),
            batch_steps: 4,
        }
    }

    #[test]
    fn accumulates_in_order() {
        let mut h = History::new();
        h.push(stats(0, 1.0));
        h.push(stats(1, 0.5));
        assert_eq!(h.epochs().len(), 2);
        assert_eq!(h.final_loss(), Some(0.5));
        assert_eq!(h.final_accuracy(), Some(0.6));
        assert_eq!(h.total_batch_steps(), 8);
    }

    #[test]
    fn empty_history() {
        let h = History::new();
        assert!(h.last().is_none());
        assert_eq!(h.final_loss(), None);
        assert_eq!(h.total_batch_steps(), 0);
    }
}
