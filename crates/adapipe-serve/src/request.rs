//! The plan-request wire format, its canonicalization, and the
//! content-addressing digest.
//!
//! A request body is a versioned, line-oriented `key = value` document
//! (the same shape as the plan text format):
//!
//! ```text
//! adapipe-plan-request v1
//! model = gpt2
//! cluster = a
//! nodes = 1
//! tensor = 2
//! pipeline = 4
//! seq_len = 512
//! global_batch = 16
//! ```
//!
//! Parsing is closed-world (unknown or duplicate keys are rejected) and
//! every omitted optional key is materialized with its default, so two
//! *dimensionally equal* configs — however they were spelled — produce
//! the same [`PlanRequest::canonical_text`] and therefore the same
//! SHA-256 [`PlanRequest::digest`]. The digest is the cache address:
//! `GET /v1/plan/{digest}` and the `X-Adapipe-Digest` response header
//! both speak it.
//!
//! `deadline_ms` is deliberately excluded from the canonical text: a
//! deadline changes how long the caller will wait, not which plan they
//! are asking for.

use crate::names;
use adapipe::{Method, Planner};
use adapipe_exec::sha256_hex;
use adapipe_memory::OptimizerSpec;
use adapipe_model::{ParallelConfig, TrainConfig};
use adapipe_units::MicroSecs;
use std::fmt;

/// The version header every request body must start with.
pub const REQUEST_HEADER: &str = "adapipe-plan-request v1";

/// The search headroom a request defaults to — must equal the
/// [`Planner`] default so "omitted" and "spelled-out default" digest
/// identically.
pub const DEFAULT_HEADROOM: f64 = 0.875;

/// A validated, normalized plan request.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRequest {
    /// Model preset name (see [`names::MODEL_CHOICES`]).
    pub model: String,
    /// Cluster preset name (see [`names::CLUSTER_CHOICES`]).
    pub cluster: String,
    /// Cluster size in nodes.
    pub nodes: usize,
    /// Tensor-parallel degree.
    pub tensor: usize,
    /// Pipeline-parallel degree.
    pub pipeline: usize,
    /// Data-parallel degree.
    pub data: usize,
    /// Micro-batch size.
    pub micro_batch: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Global batch size.
    pub global_batch: usize,
    /// Method name (see [`names::METHOD_CHOICES`]).
    pub method: String,
    /// Search headroom in `(0, 1]`.
    pub headroom: f64,
    /// Whether the optimizer keeps FP32 gradient accumulators.
    pub fp32_grads: bool,
    /// Per-request deadline; **not** part of the digest.
    pub deadline: Option<MicroSecs>,
}

/// Why a request body was rejected.
#[derive(Debug)]
pub enum RequestError {
    /// The body was not a well-formed request document.
    Malformed(String),
    /// A key named a choice outside the closed vocabulary.
    UnknownChoice {
        /// The offending key.
        key: &'static str,
        /// What was given.
        value: String,
        /// The valid choices.
        choices: &'static str,
    },
    /// The keys parsed but the configuration is invalid (sizes,
    /// divisibility, ...).
    Domain(String),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Malformed(msg) => write!(f, "{msg}"),
            RequestError::UnknownChoice {
                key,
                value,
                choices,
            } => write!(f, "{key} = {value}: expected one of {choices}"),
            RequestError::Domain(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RequestError {}

fn positive(key: &'static str, value: &str) -> Result<usize, RequestError> {
    value
        .parse::<usize>()
        .ok()
        .filter(|&v| v > 0)
        .ok_or_else(|| {
            RequestError::Malformed(format!("{key} = {value}: expected a positive integer"))
        })
}

impl PlanRequest {
    /// A request with every optional key at its default (model `gpt3`,
    /// cluster `a` at its default node count, `d = 1`, micro-batch 1,
    /// method `adapipe`, default headroom, FP16 grads, no deadline).
    #[must_use]
    pub fn new(tensor: usize, pipeline: usize, seq_len: usize, global_batch: usize) -> Self {
        PlanRequest {
            model: "gpt3".to_string(),
            cluster: "a".to_string(),
            nodes: names::default_nodes("a").unwrap_or(8),
            tensor,
            pipeline,
            data: 1,
            micro_batch: 1,
            seq_len,
            global_batch,
            method: "adapipe".to_string(),
            headroom: DEFAULT_HEADROOM,
            fp32_grads: false,
            deadline: None,
        }
    }

    /// Parses and validates a request body.
    pub fn parse(text: &str) -> Result<PlanRequest, RequestError> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines
            .next()
            .ok_or_else(|| RequestError::Malformed("empty request body".to_string()))?;
        if header != REQUEST_HEADER {
            return Err(RequestError::Malformed(format!(
                "first line must be `{REQUEST_HEADER}`, got `{header}`"
            )));
        }

        let mut model = None;
        let mut cluster = None;
        let mut nodes = None;
        let mut tensor = None;
        let mut pipeline = None;
        let mut data = None;
        let mut micro_batch = None;
        let mut seq_len = None;
        let mut global_batch = None;
        let mut method = None;
        let mut headroom = None;
        let mut fp32_grads = None;
        let mut deadline = None;
        let mut seen: Vec<String> = Vec::new();

        for line in lines {
            let (key, value) = line.split_once('=').ok_or_else(|| {
                RequestError::Malformed(format!("expected `key = value`, got `{line}`"))
            })?;
            let key = key.trim();
            let value = value.trim();
            if seen.iter().any(|k| k == key) {
                return Err(RequestError::Malformed(format!("duplicate key `{key}`")));
            }
            seen.push(key.to_string());
            match key {
                "model" => {
                    if names::model(value).is_none() {
                        return Err(RequestError::UnknownChoice {
                            key: "model",
                            value: value.to_string(),
                            choices: names::MODEL_CHOICES,
                        });
                    }
                    model = Some(value.to_string());
                }
                "cluster" => {
                    if names::default_nodes(value).is_none() {
                        return Err(RequestError::UnknownChoice {
                            key: "cluster",
                            value: value.to_string(),
                            choices: names::CLUSTER_CHOICES,
                        });
                    }
                    cluster = Some(value.to_string());
                }
                "nodes" => nodes = Some(positive("nodes", value)?),
                "tensor" => tensor = Some(positive("tensor", value)?),
                "pipeline" => pipeline = Some(positive("pipeline", value)?),
                "data" => data = Some(positive("data", value)?),
                "micro_batch" => micro_batch = Some(positive("micro_batch", value)?),
                "seq_len" => seq_len = Some(positive("seq_len", value)?),
                "global_batch" => global_batch = Some(positive("global_batch", value)?),
                "method" => {
                    if names::method(value).is_none() {
                        return Err(RequestError::UnknownChoice {
                            key: "method",
                            value: value.to_string(),
                            choices: names::METHOD_CHOICES,
                        });
                    }
                    method = Some(value.to_string());
                }
                "headroom" => {
                    let h: f64 = value.parse().map_err(|_| {
                        RequestError::Malformed(format!(
                            "headroom = {value}: expected a fraction in (0, 1]"
                        ))
                    })?;
                    if !(h.is_finite() && h > 0.0 && h <= 1.0) {
                        return Err(RequestError::Malformed(format!(
                            "headroom = {value}: must be in (0, 1]"
                        )));
                    }
                    headroom = Some(h);
                }
                "fp32_grads" => {
                    fp32_grads = Some(match value {
                        "true" => true,
                        "false" => false,
                        other => {
                            return Err(RequestError::UnknownChoice {
                                key: "fp32_grads",
                                value: other.to_string(),
                                choices: "true, false",
                            })
                        }
                    });
                }
                "deadline_ms" => {
                    let ms = positive("deadline_ms", value)?;
                    deadline = Some(MicroSecs::new(ms as f64 * 1e3));
                }
                other => {
                    return Err(RequestError::Malformed(format!("unknown key `{other}`")));
                }
            }
        }

        let require = |key: &'static str, v: Option<usize>| {
            v.ok_or_else(|| RequestError::Malformed(format!("missing required key `{key}`")))
        };
        let cluster = cluster.unwrap_or_else(|| "a".to_string());
        let nodes = match nodes {
            Some(n) => n,
            None => names::default_nodes(&cluster).unwrap_or(8),
        };
        Ok(PlanRequest {
            model: model.unwrap_or_else(|| "gpt3".to_string()),
            cluster,
            nodes,
            tensor: require("tensor", tensor)?,
            pipeline: require("pipeline", pipeline)?,
            data: data.unwrap_or(1),
            micro_batch: micro_batch.unwrap_or(1),
            seq_len: require("seq_len", seq_len)?,
            global_batch: require("global_batch", global_batch)?,
            method: method.unwrap_or_else(|| "adapipe".to_string()),
            headroom: headroom.unwrap_or(DEFAULT_HEADROOM),
            fp32_grads: fp32_grads.unwrap_or(false),
            deadline,
        })
    }

    /// The canonical form: fixed key order, every default materialized,
    /// deadline excluded. Dimensionally-equal requests render the same
    /// text.
    #[must_use]
    pub fn canonical_text(&self) -> String {
        format!(
            "{REQUEST_HEADER}\n\
             cluster = {}\n\
             data = {}\n\
             fp32_grads = {}\n\
             global_batch = {}\n\
             headroom = {:?}\n\
             method = {}\n\
             micro_batch = {}\n\
             model = {}\n\
             nodes = {}\n\
             pipeline = {}\n\
             seq_len = {}\n\
             tensor = {}\n",
            self.cluster,
            self.data,
            self.fp32_grads,
            self.global_batch,
            self.headroom,
            self.method,
            self.micro_batch,
            self.model,
            self.nodes,
            self.pipeline,
            self.seq_len,
            self.tensor,
        )
    }

    /// The content address: SHA-256 of [`Self::canonical_text`], hex.
    #[must_use]
    pub fn digest(&self) -> String {
        sha256_hex(self.canonical_text().as_bytes())
    }

    /// The wire text a client sends. Includes the deadline when set
    /// (unlike the canonical text, which drops it).
    #[must_use]
    pub fn to_wire_text(&self) -> String {
        let mut text = self.canonical_text();
        if let Some(deadline) = self.deadline {
            text.push_str(&format!(
                "deadline_ms = {}\n",
                (deadline.as_micros() / 1e3).round() as u64
            ));
        }
        text
    }

    /// Builds the planner this request describes (model + cluster +
    /// headroom + optimizer).
    pub fn planner(&self) -> Result<Planner, RequestError> {
        let model = names::model(&self.model).ok_or_else(|| RequestError::UnknownChoice {
            key: "model",
            value: self.model.clone(),
            choices: names::MODEL_CHOICES,
        })?;
        let cluster = names::cluster(&self.cluster, Some(self.nodes)).ok_or_else(|| {
            RequestError::UnknownChoice {
                key: "cluster",
                value: self.cluster.clone(),
                choices: names::CLUSTER_CHOICES,
            }
        })?;
        if !(self.headroom > 0.0 && self.headroom <= 1.0) {
            return Err(RequestError::Domain(format!(
                "headroom {} must be in (0, 1]",
                self.headroom
            )));
        }
        let mut planner = Planner::new(model, cluster).with_search_headroom(self.headroom);
        if self.fp32_grads {
            planner = planner.with_optimizer(OptimizerSpec::adam_fp32_grad_accum());
        }
        Ok(planner)
    }

    /// The method this request asks for.
    pub fn method_enum(&self) -> Result<Method, RequestError> {
        names::method(&self.method).ok_or_else(|| RequestError::UnknownChoice {
            key: "method",
            value: self.method.clone(),
            choices: names::METHOD_CHOICES,
        })
    }

    /// The `(t, p, d)` strategy.
    pub fn parallel(&self) -> Result<ParallelConfig, RequestError> {
        ParallelConfig::new(self.tensor, self.pipeline, self.data)
            .map_err(|e| RequestError::Domain(e.to_string()))
    }

    /// The training workload.
    pub fn train(&self) -> Result<TrainConfig, RequestError> {
        TrainConfig::new(self.micro_batch, self.seq_len, self.global_batch)
            .map_err(|e| RequestError::Domain(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> String {
        format!(
            "{REQUEST_HEADER}\nmodel = gpt2\ncluster = a\nnodes = 1\n\
             tensor = 2\npipeline = 4\nseq_len = 512\nglobal_batch = 16\n"
        )
    }

    #[test]
    fn parse_materializes_defaults() {
        let req = PlanRequest::parse(&minimal()).unwrap();
        assert_eq!(req.data, 1);
        assert_eq!(req.micro_batch, 1);
        assert_eq!(req.method, "adapipe");
        assert!((req.headroom - DEFAULT_HEADROOM).abs() < 1e-12);
        assert!(!req.fp32_grads);
        assert!(req.deadline.is_none());
    }

    #[test]
    fn dimensionally_equal_spellings_share_a_digest() {
        let implicit = PlanRequest::parse(&minimal()).unwrap();
        let explicit = PlanRequest::parse(&format!(
            "{REQUEST_HEADER}\n# a comment\nmethod = adapipe\ndata = 1\n\
             micro_batch = 1\nheadroom = 0.875\nfp32_grads = false\n\
             global_batch = 16\nseq_len = 512\npipeline = 4\ntensor = 2\n\
             nodes = 1\ncluster = a\nmodel = gpt2\n"
        ))
        .unwrap();
        assert_eq!(implicit.digest(), explicit.digest());
        assert_eq!(implicit, explicit);
    }

    #[test]
    fn deadline_does_not_change_the_digest() {
        let without = PlanRequest::parse(&minimal()).unwrap();
        let with = PlanRequest::parse(&format!("{}deadline_ms = 250\n", minimal())).unwrap();
        assert_eq!(without.digest(), with.digest());
        assert_eq!(with.deadline, Some(MicroSecs::new(250_000.0)));
    }

    #[test]
    fn different_configs_have_different_digests() {
        let a = PlanRequest::parse(&minimal()).unwrap();
        let b = PlanRequest::parse(&minimal().replace("seq_len = 512", "seq_len = 1024")).unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn canonical_text_round_trips_through_parse() {
        let req = PlanRequest::parse(&minimal()).unwrap();
        let reparsed = PlanRequest::parse(&req.canonical_text()).unwrap();
        assert_eq!(req, reparsed);
        let wired = PlanRequest::parse(
            &PlanRequest {
                deadline: Some(MicroSecs::new(5e5)),
                ..req.clone()
            }
            .to_wire_text(),
        )
        .unwrap();
        assert_eq!(wired.deadline, Some(MicroSecs::new(5e5)));
        assert_eq!(wired.digest(), req.digest());
    }

    #[test]
    fn rejects_bad_documents() {
        for (body, needle) in [
            ("", "empty request"),
            ("adapipe-plan-request v2\n", "first line"),
            (&format!("{REQUEST_HEADER}\nbogus\n"), "key = value"),
            (&format!("{REQUEST_HEADER}\nwarp = 9\n"), "unknown key"),
            (
                &format!("{REQUEST_HEADER}\ntensor = 2\ntensor = 4\n"),
                "duplicate",
            ),
            (&format!("{REQUEST_HEADER}\ntensor = 0\n"), "positive"),
            (&minimal().replace("model = gpt2", "model = bloom"), "model"),
            (&format!("{}headroom = 1.5\n", minimal()), "headroom"),
            (
                &minimal().replace("tensor = 2\n", ""),
                "missing required key `tensor`",
            ),
        ] {
            let err = PlanRequest::parse(body).unwrap_err().to_string();
            assert!(err.contains(needle), "body {body:?} gave {err}");
        }
    }

    #[test]
    fn resolves_into_domain_objects() {
        let req = PlanRequest::parse(&minimal()).unwrap();
        let planner = req.planner().unwrap();
        assert_eq!(planner.model().name(), "gpt2-small");
        assert_eq!(req.method_enum().unwrap(), Method::AdaPipe);
        assert_eq!(req.parallel().unwrap().devices(), 8);
        assert_eq!(req.train().unwrap().seq_len(), 512);
    }
}
