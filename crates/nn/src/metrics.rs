//! Classification metrics.

use smartpaf_tensor::Tensor;

/// Streaming accuracy accumulator over many batches.
#[derive(Debug, Default, Clone, Copy)]
pub struct AccuracyMeter {
    correct: usize,
    total: usize,
}

impl AccuracyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        AccuracyMeter::default()
    }

    /// Adds a batch of predictions.
    pub fn update(&mut self, logits: &Tensor, labels: &[usize]) {
        let preds = logits.argmax_rows();
        self.correct += preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        self.total += labels.len();
    }

    /// Current accuracy in `[0, 1]` (zero when empty).
    pub fn accuracy(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f32 / self.total as f32
        }
    }

    /// Number of samples seen.
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_accumulates() {
        let mut m = AccuracyMeter::new();
        let a = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]);
        let b = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]);
        m.update(&a, &[0]);
        m.update(&b, &[0]);
        assert_eq!(m.accuracy(), 0.5);
        assert_eq!(m.total(), 2);
    }

    #[test]
    fn empty_meter_is_zero() {
        assert_eq!(AccuracyMeter::new().accuracy(), 0.0);
    }
}
