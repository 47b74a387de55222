//! Performance goals: quality-of-service constraints on CFC curves.
//!
//! §2.2: "a performance goal can be viewed as a quality of service
//! requirement … a configuration `C_j` satisfies the performance goal if
//! `CFC_j > G`. Note that any monotonic function G can be used as a
//! performance goal in this setting."

use crate::cfc::Cfc;

/// A monotone step-function performance goal `G(x)`.
///
/// `G(x)` is the largest `frac` whose step starts at or below `x`; zero
/// before the first step.
///
/// ```
/// use tab_core::{Cfc, Goal};
///
/// // "10% under 10 s, half under a minute, 90% before the timeout."
/// let goal = Goal::parse("10:0.1, 60:50%, 1800:0.9").unwrap();
/// let run = Cfc::from_values(&[2.0, 20.0, 30.0, 40.0, 200.0]);
/// assert!(goal.satisfied_by(&run));
/// let slow = Cfc::from_values(&[15.0, 70.0, 80.0, 90.0, 2000.0]);
/// assert!(!goal.satisfied_by(&slow));
/// ```
#[derive(Debug, Clone)]
pub struct Goal {
    /// Steps `(x, frac)`, strictly increasing in both coordinates.
    steps: Vec<(f64, f64)>,
}

impl Goal {
    /// A goal from `(x, fraction)` steps.
    ///
    /// # Panics
    /// Panics if the steps are not strictly increasing in `x` and
    /// non-decreasing in `fraction`, or a fraction is outside `[0, 1]`
    /// — a non-monotone goal is meaningless (§2.2).
    pub fn from_steps(steps: Vec<(f64, f64)>) -> Self {
        for w in steps.windows(2) {
            assert!(w[0].0 < w[1].0, "goal steps must increase in x");
            assert!(w[0].1 <= w[1].1, "goal fractions must be monotone");
        }
        assert!(
            steps.iter().all(|s| (0.0..=1.0).contains(&s.1)),
            "fractions must be in [0, 1]"
        );
        Goal { steps }
    }

    /// `G(x)`.
    pub fn value(&self, x: f64) -> f64 {
        self.steps
            .iter()
            .rev()
            .find(|(sx, _)| *sx <= x)
            .map(|(_, f)| *f)
            .unwrap_or(0.0)
    }

    /// Whether a CFC satisfies the goal: `CFC(x) ≥ G(x)` at (just after)
    /// every step, i.e. by each deadline the required fraction has
    /// completed.
    pub fn satisfied_by(&self, cfc: &Cfc) -> bool {
        self.steps.iter().all(|&(x, f)| cfc.at(x) >= f)
    }

    /// The goal's steps.
    pub fn steps(&self) -> &[(f64, f64)] {
        &self.steps
    }

    /// Parse a goal from the compact form `"10:0.1,60:0.5,1800:0.9"`
    /// (seconds:fraction pairs). Fractions may also be percentages
    /// (`"60:50%"`).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut steps = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (x, f) = part
                .split_once(':')
                .ok_or_else(|| format!("expected `seconds:fraction`, got `{part}`"))?;
            let x: f64 = x.trim().parse().map_err(|_| format!("bad seconds `{x}`"))?;
            let f = f.trim();
            let frac: f64 = if let Some(pct) = f.strip_suffix('%') {
                pct.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad percentage `{f}`"))?
                    / 100.0
            } else {
                f.parse().map_err(|_| format!("bad fraction `{f}`"))?
            };
            steps.push((x, frac));
        }
        if steps.is_empty() {
            return Err("goal has no steps".into());
        }
        for w in steps.windows(2) {
            if w[0].0 >= w[1].0 || w[0].1 > w[1].1 {
                return Err("goal steps must be monotone".into());
            }
        }
        if steps.iter().any(|s| !(0.0..=1.0).contains(&s.1)) {
            return Err("fractions must be within [0, 1]".into());
        }
        Ok(Goal::from_steps(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 2: 10% under 10 s, 50% under a minute, 90%
    /// before the 30-minute timeout.
    fn example_2() -> Goal {
        Goal::from_steps(vec![(10.0, 0.1), (60.0, 0.5), (1800.0, 0.9)])
    }

    #[test]
    fn example_2_step_values() {
        let g = example_2();
        assert_eq!(g.value(5.0), 0.0);
        assert_eq!(g.value(10.0), 0.1);
        assert_eq!(g.value(59.0), 0.1);
        assert_eq!(g.value(60.0), 0.5);
        assert_eq!(g.value(1e6), 0.9);
    }

    #[test]
    fn satisfied_and_violated() {
        let g = example_2();
        // 10 queries: all at 1s -> satisfies everything.
        let fast = Cfc::from_values(&[1.0; 10]);
        assert!(g.satisfied_by(&fast));
        // All queries at 100s: 0% under 10s -> fails the first step.
        let slow = Cfc::from_values(&[100.0; 10]);
        assert!(!g.satisfied_by(&slow));
        // 90% fast but 20% at timeout-ish: fails the 90% step.
        let mut v = vec![1.0; 7];
        v.extend([f64::INFINITY, f64::INFINITY, f64::INFINITY]);
        assert!(!g.satisfied_by(&Cfc::from_values(&v)));
    }

    #[test]
    fn boundary_semantics() {
        // Exactly 10% under 10 seconds (strictly below).
        let v = [9.0, 20.0, 20.0, 20.0, 20.0, 61.0, 61.0, 61.0, 61.0, 61.0];
        let g = Goal::from_steps(vec![(10.0, 0.1)]);
        assert!(g.satisfied_by(&Cfc::from_values(&v)));
        let g2 = Goal::from_steps(vec![(9.0, 0.1)]);
        assert!(!g2.satisfied_by(&Cfc::from_values(&v)));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_goal_rejected() {
        Goal::from_steps(vec![(10.0, 0.5), (20.0, 0.1)]);
    }

    #[test]
    fn parse_compact_form() {
        let g = Goal::parse("10:0.1, 60:50%, 1800:0.9").unwrap();
        assert_eq!(g.steps().len(), 3);
        assert_eq!(g.value(60.0), 0.5);
        assert!(Goal::parse("").is_err());
        assert!(Goal::parse("10:0.5,5:0.9").is_err());
        assert!(Goal::parse("10:1.5").is_err());
        assert!(Goal::parse("ten:0.5").is_err());
    }
}
