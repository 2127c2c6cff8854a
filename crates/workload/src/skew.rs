//! The shared workload-skew knob.
//!
//! Each generator used to hard-code its popularity skew (the wiki's
//! Zipf β, the forum's hot-topic concentration, the hotcrp reviewers'
//! uniform paper choice, the shop's product Zipf). This module threads
//! one knob through all four so experiments sweep the same parameter
//! space: a Zipf exponent `theta` for whatever each workload's "popular
//! thing" is, and a session-length multiplier for how many requests a
//! logged-in session issues before it ends.
//!
//! The generators take the knob as a [`Skew`] value (`Params::with_skew`);
//! this crate never reads the environment. Binaries parse it once from
//! `OROCHI_WORKLOAD_SKEW` (`"theta"`, `"theta,session_len"`, or
//! `",session_len"`) or the `--skew` / `--session-len` flags, through
//! the harness `Config`. Unset fields leave the generator's default
//! untouched, so the paper's published parameters remain the defaults
//! everywhere.

/// A parsed skew override. `None` fields keep the workload defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Skew {
    /// Zipf exponent over each workload's popularity axis (wiki pages,
    /// forum topics, hotcrp papers, shop products).
    pub theta: Option<f64>,
    /// Session-length multiplier: how many requests a logged-in session
    /// issues relative to the workload's default.
    pub session_len: Option<f64>,
}

impl Skew {
    /// Parses `"theta"`, `"theta,session_len"`, or `",session_len"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use orochi_workload::skew::Skew;
    ///
    /// let s = Skew::parse("0.8,4").unwrap();
    /// assert_eq!(s.theta, Some(0.8));
    /// assert_eq!(s.session_len, Some(4.0));
    /// assert_eq!(Skew::parse(",2").unwrap().theta, None);
    /// ```
    pub fn parse(raw: &str) -> Result<Skew, String> {
        let raw = raw.trim();
        if raw.is_empty() {
            return Ok(Skew::default());
        }
        let mut parts = raw.splitn(2, ',');
        let theta_part = parts.next().unwrap_or("").trim();
        let len_part = parts.next().unwrap_or("").trim();
        let field = |label: &str, s: &str, min: f64| -> Result<Option<f64>, String> {
            if s.is_empty() {
                return Ok(None);
            }
            let v: f64 = s
                .parse()
                .map_err(|_| format!("{label} {s:?} is not a number"))?;
            if !v.is_finite() || v < min {
                return Err(format!("{label} {v} out of range (>= {min})"));
            }
            Ok(Some(v))
        };
        Ok(Skew {
            theta: field("skew theta", theta_part, 0.0)?,
            session_len: field("session length", len_part, 0.01)?,
        })
    }

    /// `theta`, defaulting to `base` when not overridden.
    pub fn theta_or(&self, base: f64) -> f64 {
        self.theta.unwrap_or(base)
    }

    /// `base` requests scaled by the session-length multiplier, never
    /// below one request.
    pub fn scale_session(&self, base: usize) -> usize {
        match self.session_len {
            Some(f) => ((base as f64 * f).round() as usize).max(1),
            None => base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_forms() {
        assert_eq!(Skew::parse("").unwrap(), Skew::default());
        assert_eq!(
            Skew::parse("1.2").unwrap(),
            Skew {
                theta: Some(1.2),
                session_len: None
            }
        );
        assert_eq!(
            Skew::parse("0.53,3").unwrap(),
            Skew {
                theta: Some(0.53),
                session_len: Some(3.0)
            }
        );
        assert_eq!(
            Skew::parse(",2.5").unwrap(),
            Skew {
                theta: None,
                session_len: Some(2.5)
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Skew::parse("abc").is_err());
        assert!(Skew::parse("-1").is_err());
        assert!(Skew::parse("1,0").is_err());
        assert!(Skew::parse("nan").is_err());
    }

    #[test]
    fn defaults_pass_through() {
        let s = Skew::default();
        assert_eq!(s.theta_or(0.53), 0.53);
        assert_eq!(s.scale_session(7), 7);
        let s = Skew {
            theta: Some(1.1),
            session_len: Some(0.1),
        };
        assert_eq!(s.theta_or(0.53), 1.1);
        assert_eq!(s.scale_session(3), 1, "never below one request");
    }
}
