//! Serde wire formats for the PAF types the plan registry persists.
//!
//! Formats are documented field-by-field in `docs/ARTIFACT_FORMAT.md`
//! at the repository root:
//!
//! - [`Polynomial`] ⇄ a JSON array of ascending coefficients.
//! - [`PafForm`] ⇄ a stable ASCII tag string (`PafForm::tag`), not
//!   the unicode display name, so artifacts stay grep-able and the
//!   display names stay free to change.
//! - [`CompositePaf`] ⇄ `{"form": tag|null, "stages": [[...], ...]}` —
//!   the stage coefficients always travel, so a tuned composite whose
//!   coefficients have drifted from its form's published baseline
//!   round-trips exactly.

use crate::composite::CompositePaf;
use crate::poly::Polynomial;
use crate::PafForm;
use serde::{Deserialize, Error, Serialize, Value};

impl PafForm {
    /// Stable ASCII identifier used in serialized artifacts. Unlike
    /// [`PafForm::paper_name`] these tags are a compatibility
    /// surface: changing one invalidates stored plans.
    fn tag(&self) -> &'static str {
        match self {
            PafForm::F1G2 => "f1_g2",
            PafForm::F2G2 => "f2_g2",
            PafForm::F2G3 => "f2_g3",
            PafForm::Alpha7 => "alpha7",
            PafForm::F1SqG1Sq => "f1sq_g1sq",
            PafForm::MinimaxDeg27 => "minimax_deg27",
        }
    }

    /// Inverse of [`PafForm::tag`]; `None` for unknown tags.
    fn from_tag(tag: &str) -> Option<PafForm> {
        PafForm::all().into_iter().find(|f| f.tag() == tag)
    }
}

impl Serialize for PafForm {
    fn serialize(&self) -> Value {
        Value::Str(self.tag().to_string())
    }
}

impl Deserialize for PafForm {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let tag = value
            .as_str()
            .ok_or_else(|| Error::type_mismatch("PAF form tag", value))?;
        PafForm::from_tag(tag).ok_or_else(|| Error::custom(format!("unknown PAF form tag `{tag}`")))
    }
}

impl Serialize for Polynomial {
    fn serialize(&self) -> Value {
        self.coeffs().serialize()
    }
}

impl Deserialize for Polynomial {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let coeffs = Vec::<f64>::deserialize(value)?;
        if coeffs.is_empty() {
            return Err(Error::custom("polynomial needs at least one coefficient"));
        }
        if coeffs.iter().any(|c| !c.is_finite()) {
            return Err(Error::custom("polynomial coefficients must be finite"));
        }
        Ok(Polynomial::new(coeffs))
    }
}

impl Serialize for CompositePaf {
    fn serialize(&self) -> Value {
        Value::object([
            ("form", self.form().serialize()),
            ("stages", self.stages().serialize()),
        ])
    }
}

impl Deserialize for CompositePaf {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let form = Option::<PafForm>::deserialize(value.req("form")?)?;
        let stages = Vec::<Polynomial>::deserialize(value.req("stages")?)?;
        if stages.is_empty() {
            return Err(Error::custom("composite needs at least one stage"));
        }
        let mut paf = CompositePaf::new(stages);
        paf.set_form(form);
        Ok(paf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json;

    #[test]
    fn form_tags_round_trip_and_stay_unique() {
        let mut seen = std::collections::HashSet::new();
        for form in PafForm::all() {
            assert!(seen.insert(form.tag()), "duplicate tag {}", form.tag());
            assert_eq!(PafForm::from_tag(form.tag()), Some(form));
            let v = form.serialize();
            assert_eq!(PafForm::deserialize(&v).unwrap(), form);
        }
        assert_eq!(PafForm::from_tag("nope"), None);
    }

    #[test]
    fn polynomial_round_trips_bit_exact() {
        let p = Polynomial::from_odd(&[2126.0 / 1024.0, -1359.0 / 1024.0]);
        let text = json::to_string(&p.serialize());
        let back = Polynomial::deserialize(&json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, p);
        for (a, b) in back.coeffs().iter().zip(p.coeffs()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn composite_round_trips_with_and_without_form() {
        for paf in [
            CompositePaf::from_form(PafForm::MinimaxDeg27),
            CompositePaf::new(vec![Polynomial::from_odd(&[1.5, -0.5])]),
        ] {
            let text = json::to_string(&paf.serialize());
            let back = CompositePaf::deserialize(&json::from_str(&text).unwrap()).unwrap();
            assert_eq!(back, paf);
            assert_eq!(back.form(), paf.form());
        }
    }

    #[test]
    fn malformed_composites_are_rejected() {
        for bad in [
            r#"{"form":"f1_g2"}"#,
            r#"{"form":"bogus","stages":[[0.0,1.0]]}"#,
            r#"{"form":null,"stages":[]}"#,
            r#"{"form":null,"stages":[[]]}"#,
            "[1,2,3]",
        ] {
            let v = json::from_str(bad).unwrap();
            assert!(CompositePaf::deserialize(&v).is_err(), "{bad}");
        }
    }
}
