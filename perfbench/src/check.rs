//! Reference checks on the server's answers.
//!
//! A `POST /jobs` answer is the job's `JobOutcome` wire object with the
//! server-assigned `job_id` and the `cache` disposition prepended. It
//! passes when everything after those two members equals, byte for byte,
//! `JobSpec::run().outcome` rendered for the same spec.

use hetchol::job::JobSpec;

/// The answer with its `{"job_id":N,"cache":"…",` envelope removed, or
/// `None` when the answer does not start with that envelope.
fn strip_envelope(answer: &str) -> Option<&str> {
    let rest = answer.strip_prefix(r#"{"job_id":"#)?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    if digits == 0 {
        return None;
    }
    let rest = rest[digits..].strip_prefix(r#","cache":""#)?;
    let close = rest.find('"')?;
    rest[close + 1..].strip_prefix(',')
}

/// Whether a `POST /jobs` answer carries exactly the `reference` outcome
/// (the `JobOutcome::to_json` text), ignoring `job_id` and `cache`.
pub fn answer_matches(answer: &str, reference: &str) -> bool {
    match (strip_envelope(answer), reference.strip_prefix('{')) {
        (Some(got), Some(want)) => got == want,
        _ => false,
    }
}

/// The reference outcome text for `spec`: a fresh, direct `JobSpec::run`.
pub fn reference(spec: &JobSpec) -> String {
    spec.run()
        .map(|run| run.outcome.to_json())
        .unwrap_or_else(|e| format!("reference run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetchol::job::JobAction;

    fn envelope(reference: &str) -> String {
        format!(r#"{{"job_id":17,"cache":"miss",{}"#, &reference[1..])
    }

    #[test]
    fn a_served_answer_matches_its_reference() {
        let mut spec = JobSpec::new("cholesky", 6).unwrap();
        spec.jitter = true;
        spec.seed = 9;
        let want = reference(&spec);
        assert!(answer_matches(&envelope(&want), &want));
        let hit = envelope(&want).replace(r#""cache":"miss""#, r#""cache":"hit""#);
        assert!(answer_matches(&hit, &want));
    }

    #[test]
    fn a_tampered_makespan_digit_fails() {
        let spec = JobSpec::new("cholesky", 6).unwrap();
        let want = reference(&spec);
        let answer = envelope(&want);
        let at = answer
            .find(r#""makespan_ns":"#)
            .expect("simulate answers carry a makespan")
            + r#""makespan_ns":"#.len();
        let digit = answer.as_bytes()[at];
        let flipped = if digit == b'9' {
            '8'
        } else {
            (digit + 1) as char
        };
        let mut tampered = answer.clone();
        tampered.replace_range(at..at + 1, &flipped.to_string());
        assert_ne!(tampered, answer);
        assert!(!answer_matches(&tampered, &want));
    }

    #[test]
    fn other_answers_fail() {
        let spec = JobSpec::new("cholesky", 4)
            .unwrap()
            .action(JobAction::Bounds);
        let want = reference(&spec);
        assert!(!answer_matches(&want, &want), "no envelope");
        assert!(!answer_matches(
            r#"{"status":"degraded","code":"queue-full"}"#,
            &want
        ));
        assert!(!answer_matches("", &want));
        let other = reference(&spec.clone().action(JobAction::Certify));
        assert!(!answer_matches(&envelope(&other), &want));
    }
}
