//! Replayable campaign manifests (`results/campaign.json`).
//!
//! A [`CampaignManifest`] is the serialized record of a seeded fault
//! schedule: the seed and sampling window it was drawn from, plus the
//! canonical spec string of every sampled plan (explicit masks and bit
//! indices — see `FaultPlan::spec`). Writing the manifest next to
//! `matrix.json` makes a coverage sweep a first-class artifact: the exact
//! schedule can be re-armed later with [`CampaignManifest::campaign`],
//! independent of any future change to the sampler.

use simcore::{Campaign, CampaignSpec, FaultPlan, DEFAULT_CAMPAIGN_WINDOW};
use telemetry::Json;

/// Serialized record of one sampled fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignManifest {
    /// SplitMix64 seed the schedule was drawn from.
    pub seed: u64,
    /// Sampling window the injection points were drawn over.
    pub window: u64,
    /// Canonical `FaultPlan::spec` string per scheduled fault.
    pub specs: Vec<String>,
}

impl CampaignManifest {
    /// Sample a schedule for a parsed `--campaign <seed>:<n>` spec, using
    /// the default window.
    pub fn sample(spec: CampaignSpec) -> Self {
        Self::sample_with_window(spec, DEFAULT_CAMPAIGN_WINDOW)
    }

    /// Sample a schedule over an explicit injection-point window.
    pub fn sample_with_window(spec: CampaignSpec, window: u64) -> Self {
        let campaign = Campaign::sample(spec.seed, spec.n_faults, window);
        CampaignManifest {
            seed: spec.seed,
            window,
            specs: campaign.plans().iter().map(FaultPlan::spec).collect(),
        }
    }

    /// Re-arm the recorded schedule as a live [`Campaign`].
    pub fn campaign(&self) -> Result<Campaign, String> {
        let plans = self
            .specs
            .iter()
            .map(|s| FaultPlan::parse(s))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("campaign manifest: {e}"))?;
        Ok(Campaign::from_plans(plans, self.seed))
    }

    /// Serialise. The seed is written as a hex *string* — a JSON number
    /// (f64) cannot hold every u64 seed exactly.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("seed", Json::Str(format!("{:#x}", self.seed))),
            ("window", Json::Num(self.window as f64)),
            (
                "faults",
                Json::Arr(self.specs.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
        ])
        .pretty()
    }

    /// Parse a manifest written by [`CampaignManifest::to_json`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        let j = Json::parse(s)?;
        let seed_str = j
            .get("seed")
            .and_then(Json::as_str)
            .ok_or("campaign manifest: missing \"seed\" string")?;
        let seed = seed_str
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .or_else(|| seed_str.parse().ok())
            .ok_or_else(|| format!("campaign manifest: bad seed {seed_str:?}"))?;
        let window = j
            .get("window")
            .and_then(Json::as_u64)
            .ok_or("campaign manifest: missing \"window\"")?;
        let specs = j
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or("campaign manifest: missing \"faults\" array")?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("campaign manifest: non-string fault spec")?;
        Ok(CampaignManifest {
            seed,
            window,
            specs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let spec = CampaignSpec {
            seed: 42,
            n_faults: 6,
        };
        let a = CampaignManifest::sample(spec);
        let b = CampaignManifest::sample(spec);
        assert_eq!(a, b);
        assert_eq!(a.specs.len(), 6);
        let c = CampaignManifest::sample(CampaignSpec {
            seed: 43,
            n_faults: 6,
        });
        assert_ne!(a.specs, c.specs);
    }

    #[test]
    fn json_round_trip_preserves_full_u64_seed() {
        let m = CampaignManifest::sample(CampaignSpec {
            seed: u64::MAX - 1,
            n_faults: 4,
        });
        let back = CampaignManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.seed, u64::MAX - 1);
    }

    #[test]
    fn manifest_re_arms_the_exact_schedule() {
        let m = CampaignManifest::sample(CampaignSpec {
            seed: 9,
            n_faults: 5,
        });
        let c = m.campaign().unwrap();
        assert_eq!(c.len(), 5);
        assert_eq!(c.seed(), 9);
        let respec: Vec<String> = c.plans().iter().map(FaultPlan::spec).collect();
        assert_eq!(respec, m.specs, "specs survive the round trip verbatim");
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        assert!(CampaignManifest::from_json("{}").is_err());
        assert!(
            CampaignManifest::from_json("{\"seed\": \"zz\", \"window\": 4, \"faults\": []}")
                .is_err()
        );
        let bad_spec = "{\"seed\": \"0x1\", \"window\": 4, \"faults\": [\"bogus@1\"]}";
        let m = CampaignManifest::from_json(bad_spec).unwrap();
        assert!(
            m.campaign().is_err(),
            "unknown fault kinds fail at re-arm time"
        );
    }
}
