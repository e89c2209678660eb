//! JSON encoding/decoding of the spec types.
//!
//! Decoding is **strict**: unknown object fields, unknown `"type"` tags, and
//! unsupported `version` numbers are hard errors, so typos in hand-written
//! documents fail loudly instead of silently configuring the wrong scenario.
//! Encoding always emits the canonical field order, so re-encoding a decoded
//! document is stable.

use crate::error::SpecError;
use crate::json::{parse, Json};
use crate::model::{
    ArmsSpec, ChangePointSpec, ChurnWindowSpec, DriftSpec, EstimatorSpec, FamilySpec, FeedbackSpec,
    FleetSpec, FleetTenant, GradualDriftSpec, GraphSpec, PolicySpec, ScenarioSpec, SideBonus,
    WorkloadSpec,
};

// ---------------------------------------------------------------------------
// strict object reader
// ---------------------------------------------------------------------------

/// Tracks which keys of an object a decoder consumed; [`Obj::finish`] rejects
/// everything left over.
pub(crate) struct Obj<'a> {
    ctx: &'static str,
    fields: &'a [(String, Json)],
    used: Vec<bool>,
}

impl<'a> Obj<'a> {
    pub(crate) fn new(value: &'a Json, ctx: &'static str) -> Result<Self, SpecError> {
        let fields = value.as_object().ok_or(SpecError::Invalid {
            context: ctx,
            message: "expected a JSON object".into(),
        })?;
        Ok(Obj {
            ctx,
            fields,
            used: vec![false; fields.len()],
        })
    }

    /// The field, if present (marks it consumed). `null` counts as absent for
    /// optional fields, so callers see `None` either way.
    pub(crate) fn opt(&mut self, name: &str) -> Option<&'a Json> {
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if key == name {
                self.used[i] = true;
                return if value.is_null() { None } else { Some(value) };
            }
        }
        None
    }

    pub(crate) fn req(&mut self, name: &'static str) -> Result<&'a Json, SpecError> {
        self.opt(name).ok_or(SpecError::MissingField {
            context: self.ctx,
            field: name,
        })
    }

    pub(crate) fn finish(self) -> Result<(), SpecError> {
        for (i, (key, _)) in self.fields.iter().enumerate() {
            if !self.used[i] {
                return Err(SpecError::UnknownField {
                    context: self.ctx,
                    field: key.clone(),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// scalar helpers
// ---------------------------------------------------------------------------

pub(crate) fn get_u64(value: &Json, ctx: &'static str) -> Result<u64, SpecError> {
    value.as_u64().ok_or(SpecError::Invalid {
        context: ctx,
        message: format!("expected a non-negative integer, got {}", value.to_text()),
    })
}

pub(crate) fn get_usize(value: &Json, ctx: &'static str) -> Result<usize, SpecError> {
    value.as_usize().ok_or(SpecError::Invalid {
        context: ctx,
        message: format!("expected a non-negative integer, got {}", value.to_text()),
    })
}

pub(crate) fn get_f64(value: &Json, ctx: &'static str) -> Result<f64, SpecError> {
    value.as_f64().ok_or(SpecError::Invalid {
        context: ctx,
        message: format!("expected a number, got {}", value.to_text()),
    })
}

pub(crate) fn get_bool(value: &Json, ctx: &'static str) -> Result<bool, SpecError> {
    value.as_bool().ok_or(SpecError::Invalid {
        context: ctx,
        message: format!("expected a boolean, got {}", value.to_text()),
    })
}

pub(crate) fn get_str<'a>(value: &'a Json, ctx: &'static str) -> Result<&'a str, SpecError> {
    value.as_str().ok_or(SpecError::Invalid {
        context: ctx,
        message: format!("expected a string, got {}", value.to_text()),
    })
}

fn get_pairs_f64(value: &Json, ctx: &'static str) -> Result<Vec<(f64, f64)>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of [a, b] pairs".into(),
    })?;
    items
        .iter()
        .map(|item| {
            let pair =
                item.as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| SpecError::Invalid {
                        context: ctx,
                        message: format!("expected a 2-element array, got {}", item.to_text()),
                    })?;
            Ok((get_f64(&pair[0], ctx)?, get_f64(&pair[1], ctx)?))
        })
        .collect()
}

pub(crate) fn get_f64_array(value: &Json, ctx: &'static str) -> Result<Vec<f64>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of numbers".into(),
    })?;
    items.iter().map(|item| get_f64(item, ctx)).collect()
}

fn get_strategies(value: &Json, ctx: &'static str) -> Result<Vec<Vec<usize>>, SpecError> {
    let items = value.as_array().ok_or(SpecError::Invalid {
        context: ctx,
        message: "expected an array of arm-id arrays".into(),
    })?;
    items
        .iter()
        .map(|item| {
            let inner = item.as_array().ok_or_else(|| SpecError::Invalid {
                context: ctx,
                message: format!("expected an array of arm ids, got {}", item.to_text()),
            })?;
            inner.iter().map(|id| get_usize(id, ctx)).collect()
        })
        .collect()
}

fn pairs_f64_json(pairs: &[(f64, f64)]) -> Json {
    Json::Array(
        pairs
            .iter()
            .map(|&(a, b)| Json::Array(vec![Json::from_f64(a), Json::from_f64(b)]))
            .collect(),
    )
}

pub(crate) fn tagged(tag: &str, mut fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![("type".to_owned(), Json::String(tag.to_owned()))];
    all.append(&mut fields);
    Json::Object(all)
}

pub(crate) fn tag_of<'a>(obj: &mut Obj<'a>) -> Result<&'a str, SpecError> {
    let ctx = obj.ctx;
    get_str(obj.req("type")?, ctx)
}

// ---------------------------------------------------------------------------
// GraphSpec
// ---------------------------------------------------------------------------

pub(crate) fn graph_to_json(spec: &GraphSpec) -> Json {
    match spec {
        GraphSpec::ErdosRenyi {
            num_arms,
            edge_prob,
        } => tagged(
            "erdos_renyi",
            vec![
                ("num_arms".into(), Json::from_u64(*num_arms as u64)),
                ("edge_prob".into(), Json::from_f64(*edge_prob)),
            ],
        ),
        GraphSpec::PreferentialAttachment {
            num_arms,
            edges_per_node,
        } => tagged(
            "preferential_attachment",
            vec![
                ("num_arms".into(), Json::from_u64(*num_arms as u64)),
                (
                    "edges_per_node".into(),
                    Json::from_u64(*edges_per_node as u64),
                ),
            ],
        ),
        GraphSpec::PlantedPartition {
            num_arms,
            communities,
            p_in,
            p_out,
        } => tagged(
            "planted_partition",
            vec![
                ("num_arms".into(), Json::from_u64(*num_arms as u64)),
                ("communities".into(), Json::from_u64(*communities as u64)),
                ("p_in".into(), Json::from_f64(*p_in)),
                ("p_out".into(), Json::from_f64(*p_out)),
            ],
        ),
        GraphSpec::RandomGeometric { num_arms, radius } => tagged(
            "random_geometric",
            vec![
                ("num_arms".into(), Json::from_u64(*num_arms as u64)),
                ("radius".into(), Json::from_f64(*radius)),
            ],
        ),
        GraphSpec::Explicit { num_arms, edges } => tagged(
            "explicit",
            vec![
                ("num_arms".into(), Json::from_u64(*num_arms as u64)),
                (
                    "edges".into(),
                    Json::Array(
                        edges
                            .iter()
                            .map(|&(u, v)| {
                                Json::Array(vec![
                                    Json::from_u64(u as u64),
                                    Json::from_u64(v as u64),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ],
        ),
    }
}

pub(crate) fn graph_from_json(value: &Json) -> Result<GraphSpec, SpecError> {
    const CTX: &str = "GraphSpec";
    let mut obj = Obj::new(value, CTX)?;
    let spec = match tag_of(&mut obj)? {
        "erdos_renyi" => GraphSpec::ErdosRenyi {
            num_arms: get_usize(obj.req("num_arms")?, CTX)?,
            edge_prob: get_f64(obj.req("edge_prob")?, CTX)?,
        },
        "preferential_attachment" => GraphSpec::PreferentialAttachment {
            num_arms: get_usize(obj.req("num_arms")?, CTX)?,
            edges_per_node: get_usize(obj.req("edges_per_node")?, CTX)?,
        },
        "planted_partition" => GraphSpec::PlantedPartition {
            num_arms: get_usize(obj.req("num_arms")?, CTX)?,
            communities: get_usize(obj.req("communities")?, CTX)?,
            p_in: get_f64(obj.req("p_in")?, CTX)?,
            p_out: get_f64(obj.req("p_out")?, CTX)?,
        },
        "random_geometric" => GraphSpec::RandomGeometric {
            num_arms: get_usize(obj.req("num_arms")?, CTX)?,
            radius: get_f64(obj.req("radius")?, CTX)?,
        },
        "explicit" => {
            let num_arms = get_usize(obj.req("num_arms")?, CTX)?;
            let edges_value = obj.req("edges")?;
            let pairs = edges_value.as_array().ok_or(SpecError::Invalid {
                context: CTX,
                message: "edges must be an array of [u, v] pairs".into(),
            })?;
            let mut edges = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let uv =
                    pair.as_array()
                        .filter(|p| p.len() == 2)
                        .ok_or_else(|| SpecError::Invalid {
                            context: CTX,
                            message: format!("edge must be a [u, v] pair, got {}", pair.to_text()),
                        })?;
                edges.push((get_usize(&uv[0], CTX)?, get_usize(&uv[1], CTX)?));
            }
            GraphSpec::Explicit { num_arms, edges }
        }
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// ArmsSpec
// ---------------------------------------------------------------------------

pub(crate) fn arms_to_json(spec: &ArmsSpec) -> Json {
    match spec {
        ArmsSpec::Bernoulli { means } => tagged(
            "bernoulli",
            vec![(
                "means".into(),
                Json::Array(means.iter().map(|&m| Json::from_f64(m)).collect()),
            )],
        ),
        ArmsSpec::UniformMeanBernoulli { num_arms } => tagged(
            "uniform_mean_bernoulli",
            vec![("num_arms".into(), Json::from_u64(*num_arms as u64))],
        ),
        ArmsSpec::Beta { shapes } => {
            tagged("beta", vec![("shapes".into(), pairs_f64_json(shapes))])
        }
        ArmsSpec::ClickThroughBeta {
            num_arms,
            floor,
            spread,
            concentration,
        } => tagged(
            "click_through_beta",
            vec![
                ("num_arms".into(), Json::from_u64(*num_arms as u64)),
                ("floor".into(), Json::from_f64(*floor)),
                ("spread".into(), Json::from_f64(*spread)),
                ("concentration".into(), Json::from_f64(*concentration)),
            ],
        ),
        ArmsSpec::Uniform { ranges } => {
            tagged("uniform", vec![("ranges".into(), pairs_f64_json(ranges))])
        }
    }
}

pub(crate) fn arms_from_json(value: &Json) -> Result<ArmsSpec, SpecError> {
    const CTX: &str = "ArmsSpec";
    let mut obj = Obj::new(value, CTX)?;
    let spec = match tag_of(&mut obj)? {
        "bernoulli" => ArmsSpec::Bernoulli {
            means: get_f64_array(obj.req("means")?, CTX)?,
        },
        "uniform_mean_bernoulli" => ArmsSpec::UniformMeanBernoulli {
            num_arms: get_usize(obj.req("num_arms")?, CTX)?,
        },
        "beta" => ArmsSpec::Beta {
            shapes: get_pairs_f64(obj.req("shapes")?, CTX)?,
        },
        "click_through_beta" => ArmsSpec::ClickThroughBeta {
            num_arms: get_usize(obj.req("num_arms")?, CTX)?,
            floor: get_f64(obj.req("floor")?, CTX)?,
            spread: get_f64(obj.req("spread")?, CTX)?,
            concentration: get_f64(obj.req("concentration")?, CTX)?,
        },
        "uniform" => ArmsSpec::Uniform {
            ranges: get_pairs_f64(obj.req("ranges")?, CTX)?,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// FamilySpec
// ---------------------------------------------------------------------------

pub(crate) fn family_to_json(spec: &FamilySpec) -> Json {
    match spec {
        FamilySpec::AtMostM { m } => {
            tagged("at_most_m", vec![("m".into(), Json::from_u64(*m as u64))])
        }
        FamilySpec::ExactlyM { m } => {
            tagged("exactly_m", vec![("m".into(), Json::from_u64(*m as u64))])
        }
        FamilySpec::IndependentSets { max_size } => tagged(
            "independent_sets",
            vec![("max_size".into(), Json::from_u64(*max_size as u64))],
        ),
        FamilySpec::Explicit { strategies } => tagged(
            "explicit",
            vec![(
                "strategies".into(),
                Json::Array(
                    strategies
                        .iter()
                        .map(|s| Json::Array(s.iter().map(|&a| Json::from_u64(a as u64)).collect()))
                        .collect(),
                ),
            )],
        ),
    }
}

pub(crate) fn family_from_json(value: &Json) -> Result<FamilySpec, SpecError> {
    const CTX: &str = "FamilySpec";
    let mut obj = Obj::new(value, CTX)?;
    let spec = match tag_of(&mut obj)? {
        "at_most_m" => FamilySpec::AtMostM {
            m: get_usize(obj.req("m")?, CTX)?,
        },
        "exactly_m" => FamilySpec::ExactlyM {
            m: get_usize(obj.req("m")?, CTX)?,
        },
        "independent_sets" => FamilySpec::IndependentSets {
            max_size: get_usize(obj.req("max_size")?, CTX)?,
        },
        "explicit" => FamilySpec::Explicit {
            strategies: get_strategies(obj.req("strategies")?, CTX)?,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// EstimatorSpec, DriftSpec
// ---------------------------------------------------------------------------

pub(crate) fn estimator_to_json(spec: &EstimatorSpec) -> Json {
    match spec {
        EstimatorSpec::Stationary => tagged("stationary", vec![]),
        EstimatorSpec::Discounted { gamma } => {
            tagged("discounted", vec![("gamma".into(), Json::from_f64(*gamma))])
        }
        EstimatorSpec::SlidingWindow { window } => tagged(
            "sliding_window",
            vec![("window".into(), Json::from_u64(*window as u64))],
        ),
    }
}

pub(crate) fn estimator_from_json(value: &Json) -> Result<EstimatorSpec, SpecError> {
    const CTX: &str = "EstimatorSpec";
    let mut obj = Obj::new(value, CTX)?;
    let spec = match tag_of(&mut obj)? {
        "stationary" => EstimatorSpec::Stationary,
        "discounted" => EstimatorSpec::Discounted {
            gamma: get_f64(obj.req("gamma")?, CTX)?,
        },
        "sliding_window" => EstimatorSpec::SlidingWindow {
            window: get_usize(obj.req("window")?, CTX)?,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    spec.validate()?;
    Ok(spec)
}

pub(crate) fn drift_to_json(spec: &DriftSpec) -> Json {
    let mut fields = vec![];
    if let Some(gradual) = &spec.gradual {
        fields.push((
            "gradual".into(),
            Json::Object(vec![
                ("amplitude".into(), Json::from_f64(gradual.amplitude)),
                ("period".into(), Json::from_u64(gradual.period)),
            ]),
        ));
    }
    if !spec.change_points.is_empty() {
        fields.push((
            "change_points".into(),
            Json::Array(
                spec.change_points
                    .iter()
                    .map(|cp| {
                        Json::Object(vec![
                            ("round".into(), Json::from_u64(cp.round)),
                            ("rotation".into(), Json::from_u64(cp.rotation as u64)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if !spec.churn.is_empty() {
        fields.push((
            "churn".into(),
            Json::Array(
                spec.churn
                    .iter()
                    .map(|w| {
                        Json::Object(vec![
                            ("arm".into(), Json::from_u64(w.arm as u64)),
                            ("from".into(), Json::from_u64(w.from)),
                            ("to".into(), Json::from_u64(w.to)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::Object(fields)
}

pub(crate) fn drift_from_json(value: &Json) -> Result<DriftSpec, SpecError> {
    const CTX: &str = "DriftSpec";
    let mut obj = Obj::new(value, CTX)?;
    let gradual = obj
        .opt("gradual")
        .map(|v| -> Result<GradualDriftSpec, SpecError> {
            let mut g = Obj::new(v, CTX)?;
            let spec = GradualDriftSpec {
                amplitude: get_f64(g.req("amplitude")?, CTX)?,
                period: get_u64(g.req("period")?, CTX)?,
            };
            g.finish()?;
            Ok(spec)
        })
        .transpose()?;
    let change_points = obj
        .opt("change_points")
        .map(|v| -> Result<Vec<ChangePointSpec>, SpecError> {
            let items = v.as_array().ok_or(SpecError::Invalid {
                context: CTX,
                message: "change_points must be an array".into(),
            })?;
            items
                .iter()
                .map(|item| {
                    let mut cp = Obj::new(item, CTX)?;
                    let spec = ChangePointSpec {
                        round: get_u64(cp.req("round")?, CTX)?,
                        rotation: get_usize(cp.req("rotation")?, CTX)?,
                    };
                    cp.finish()?;
                    Ok(spec)
                })
                .collect()
        })
        .transpose()?
        .unwrap_or_default();
    let churn = obj
        .opt("churn")
        .map(|v| -> Result<Vec<ChurnWindowSpec>, SpecError> {
            let items = v.as_array().ok_or(SpecError::Invalid {
                context: CTX,
                message: "churn must be an array".into(),
            })?;
            items
                .iter()
                .map(|item| {
                    let mut w = Obj::new(item, CTX)?;
                    let spec = ChurnWindowSpec {
                        arm: get_usize(w.req("arm")?, CTX)?,
                        from: get_u64(w.req("from")?, CTX)?,
                        to: get_u64(w.req("to")?, CTX)?,
                    };
                    w.finish()?;
                    Ok(spec)
                })
                .collect()
        })
        .transpose()?
        .unwrap_or_default();
    obj.finish()?;
    Ok(DriftSpec {
        gradual,
        change_points,
        churn,
    })
}

// ---------------------------------------------------------------------------
// PolicySpec
// ---------------------------------------------------------------------------

pub(crate) fn policy_to_json(spec: &PolicySpec) -> Json {
    let unit = |tag: &str| tagged(tag, vec![]);
    match spec {
        PolicySpec::DflSso => unit("dfl_sso"),
        PolicySpec::DflSsr => unit("dfl_ssr"),
        PolicySpec::DflCso => unit("dfl_cso"),
        PolicySpec::DflCsr => unit("dfl_csr"),
        PolicySpec::DflSsoGreedyNeighbor => unit("dfl_sso_greedy_neighbor"),
        PolicySpec::DflSsrGreedyNeighbor => unit("dfl_ssr_greedy_neighbor"),
        PolicySpec::Moss { horizon } => {
            let mut fields = vec![];
            if let Some(h) = horizon {
                fields.push(("horizon".into(), Json::from_u64(*h as u64)));
            }
            tagged("moss", fields)
        }
        PolicySpec::Ucb1 => unit("ucb1"),
        PolicySpec::UcbTuned => unit("ucb_tuned"),
        PolicySpec::KlUcb { c } => {
            let mut fields = vec![];
            if let Some(c) = c {
                fields.push(("c".into(), Json::from_f64(*c)));
            }
            tagged("kl_ucb", fields)
        }
        PolicySpec::UcbV { zeta, c } => {
            let mut fields = vec![];
            if let Some(zeta) = zeta {
                fields.push(("zeta".into(), Json::from_f64(*zeta)));
            }
            if let Some(c) = c {
                fields.push(("c".into(), Json::from_f64(*c)));
            }
            tagged("ucb_v", fields)
        }
        PolicySpec::EpsilonGreedy { epsilon, seed } => tagged(
            "epsilon_greedy",
            vec![
                ("epsilon".into(), Json::from_f64(*epsilon)),
                ("seed".into(), Json::from_u64(*seed)),
            ],
        ),
        PolicySpec::DecayingEpsilonGreedy { c, seed } => tagged(
            "decaying_epsilon_greedy",
            vec![
                ("c".into(), Json::from_f64(*c)),
                ("seed".into(), Json::from_u64(*seed)),
            ],
        ),
        PolicySpec::Softmax { tau, seed } => tagged(
            "softmax",
            vec![
                ("tau".into(), Json::from_f64(*tau)),
                ("seed".into(), Json::from_u64(*seed)),
            ],
        ),
        PolicySpec::Exp3 { gamma, seed } => tagged(
            "exp3",
            vec![
                ("gamma".into(), Json::from_f64(*gamma)),
                ("seed".into(), Json::from_u64(*seed)),
            ],
        ),
        PolicySpec::ThompsonBernoulli { seed } => tagged(
            "thompson_bernoulli",
            vec![("seed".into(), Json::from_u64(*seed))],
        ),
        PolicySpec::RandomSingle { seed } => tagged(
            "random_single",
            vec![("seed".into(), Json::from_u64(*seed))],
        ),
        PolicySpec::Cucb => unit("cucb"),
        PolicySpec::Llr => unit("llr"),
        PolicySpec::CombEpsilonGreedy { c, seed } => tagged(
            "comb_epsilon_greedy",
            vec![
                ("c".into(), Json::from_f64(*c)),
                ("seed".into(), Json::from_u64(*seed)),
            ],
        ),
        PolicySpec::NaiveComArmMoss => unit("naive_comarm_moss"),
        PolicySpec::RandomCombinatorial { seed } => tagged(
            "random_combinatorial",
            vec![("seed".into(), Json::from_u64(*seed))],
        ),
        PolicySpec::Cts { seed, estimator } => {
            let mut fields = vec![("seed".into(), Json::from_u64(*seed))];
            if let Some(estimator) = estimator {
                fields.push(("estimator".into(), estimator_to_json(estimator)));
            }
            tagged("cts", fields)
        }
    }
}

pub(crate) fn policy_from_json(value: &Json) -> Result<PolicySpec, SpecError> {
    const CTX: &str = "PolicySpec";
    let mut obj = Obj::new(value, CTX)?;
    let spec = match tag_of(&mut obj)? {
        "dfl_sso" => PolicySpec::DflSso,
        "dfl_ssr" => PolicySpec::DflSsr,
        "dfl_cso" => PolicySpec::DflCso,
        "dfl_csr" => PolicySpec::DflCsr,
        "dfl_sso_greedy_neighbor" => PolicySpec::DflSsoGreedyNeighbor,
        "dfl_ssr_greedy_neighbor" => PolicySpec::DflSsrGreedyNeighbor,
        "moss" => PolicySpec::Moss {
            horizon: obj.opt("horizon").map(|v| get_usize(v, CTX)).transpose()?,
        },
        "ucb1" => PolicySpec::Ucb1,
        "ucb_tuned" => PolicySpec::UcbTuned,
        "kl_ucb" => PolicySpec::KlUcb {
            c: obj.opt("c").map(|v| get_f64(v, CTX)).transpose()?,
        },
        "ucb_v" => PolicySpec::UcbV {
            zeta: obj.opt("zeta").map(|v| get_f64(v, CTX)).transpose()?,
            c: obj.opt("c").map(|v| get_f64(v, CTX)).transpose()?,
        },
        "epsilon_greedy" => PolicySpec::EpsilonGreedy {
            epsilon: get_f64(obj.req("epsilon")?, CTX)?,
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "decaying_epsilon_greedy" => PolicySpec::DecayingEpsilonGreedy {
            c: get_f64(obj.req("c")?, CTX)?,
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "softmax" => PolicySpec::Softmax {
            tau: get_f64(obj.req("tau")?, CTX)?,
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "exp3" => PolicySpec::Exp3 {
            gamma: get_f64(obj.req("gamma")?, CTX)?,
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "thompson_bernoulli" => PolicySpec::ThompsonBernoulli {
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "random_single" => PolicySpec::RandomSingle {
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "cucb" => PolicySpec::Cucb,
        "llr" => PolicySpec::Llr,
        "comb_epsilon_greedy" => PolicySpec::CombEpsilonGreedy {
            c: get_f64(obj.req("c")?, CTX)?,
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "naive_comarm_moss" => PolicySpec::NaiveComArmMoss,
        "random_combinatorial" => PolicySpec::RandomCombinatorial {
            seed: get_u64(obj.req("seed")?, CTX)?,
        },
        "cts" => PolicySpec::Cts {
            seed: get_u64(obj.req("seed")?, CTX)?,
            estimator: obj.opt("estimator").map(estimator_from_json).transpose()?,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// SideBonus, FeedbackSpec
// ---------------------------------------------------------------------------

pub(crate) fn side_bonus_to_json(spec: &SideBonus) -> Json {
    Json::String(
        match spec {
            SideBonus::Observation => "observation",
            SideBonus::Reward => "reward",
        }
        .to_owned(),
    )
}

pub(crate) fn side_bonus_from_json(value: &Json) -> Result<SideBonus, SpecError> {
    const CTX: &str = "SideBonus";
    match get_str(value, CTX)? {
        "observation" => Ok(SideBonus::Observation),
        "reward" => Ok(SideBonus::Reward),
        other => Err(SpecError::UnknownVariant {
            context: CTX,
            variant: other.to_owned(),
        }),
    }
}

pub(crate) fn feedback_to_json(spec: &FeedbackSpec) -> Json {
    match spec {
        FeedbackSpec::Immediate => tagged("immediate", vec![]),
        FeedbackSpec::Batched { max_pending } => tagged(
            "batched",
            vec![("max_pending".into(), Json::from_u64(*max_pending as u64))],
        ),
    }
}

pub(crate) fn feedback_from_json(value: &Json) -> Result<FeedbackSpec, SpecError> {
    const CTX: &str = "FeedbackSpec";
    let mut obj = Obj::new(value, CTX)?;
    let spec = match tag_of(&mut obj)? {
        "immediate" => FeedbackSpec::Immediate,
        "batched" => FeedbackSpec::Batched {
            max_pending: get_usize(obj.req("max_pending")?, CTX)?,
        },
        other => {
            return Err(SpecError::UnknownVariant {
                context: CTX,
                variant: other.to_owned(),
            })
        }
    };
    obj.finish()?;
    spec.validate()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// WorkloadSpec, ScenarioSpec, FleetSpec
// ---------------------------------------------------------------------------

pub(crate) fn workload_to_json(spec: &WorkloadSpec) -> Json {
    let mut fields = vec![
        ("graph".into(), graph_to_json(&spec.graph)),
        ("arms".into(), arms_to_json(&spec.arms)),
        (
            "family".into(),
            spec.family
                .as_ref()
                .map(family_to_json)
                .unwrap_or(Json::Null),
        ),
    ];
    // The drift key is omitted entirely (not emitted as null) when absent, so
    // documents written before the key existed re-encode byte-identically.
    if let Some(drift) = &spec.drift {
        fields.push(("drift".into(), drift_to_json(drift)));
    }
    fields.push(("seed".into(), Json::from_u64(spec.seed)));
    Json::Object(fields)
}

pub(crate) fn workload_from_json(value: &Json) -> Result<WorkloadSpec, SpecError> {
    const CTX: &str = "WorkloadSpec";
    let mut obj = Obj::new(value, CTX)?;
    let spec = WorkloadSpec {
        graph: graph_from_json(obj.req("graph")?)?,
        arms: arms_from_json(obj.req("arms")?)?,
        family: obj.opt("family").map(family_from_json).transpose()?,
        drift: obj.opt("drift").map(drift_from_json).transpose()?,
        seed: get_u64(obj.req("seed")?, CTX)?,
    };
    obj.finish()?;
    Ok(spec)
}

pub(crate) fn scenario_to_json(spec: &ScenarioSpec) -> Json {
    Json::Object(vec![
        ("version".into(), Json::from_u64(spec.version)),
        ("name".into(), Json::String(spec.name.clone())),
        ("workload".into(), workload_to_json(&spec.workload)),
        ("policy".into(), policy_to_json(&spec.policy)),
        ("side_bonus".into(), side_bonus_to_json(&spec.side_bonus)),
        ("horizon".into(), Json::from_u64(spec.horizon as u64)),
        (
            "replications".into(),
            Json::from_u64(spec.replications as u64),
        ),
        ("seed".into(), Json::from_u64(spec.seed)),
        ("feedback".into(), feedback_to_json(&spec.feedback)),
    ])
}

pub(crate) fn scenario_from_json(value: &Json) -> Result<ScenarioSpec, SpecError> {
    const CTX: &str = "ScenarioSpec";
    let mut obj = Obj::new(value, CTX)?;
    // The version gate comes first so documents from a future schema fail
    // with `UnsupportedVersion` before any stricter field check confuses the
    // matter.
    let version = get_u64(obj.req("version")?, CTX)?;
    if version != crate::model::SPEC_VERSION {
        return Err(SpecError::UnsupportedVersion {
            found: version,
            supported: crate::model::SPEC_VERSION,
        });
    }
    let spec = ScenarioSpec {
        version,
        name: get_str(obj.req("name")?, CTX)?.to_owned(),
        workload: workload_from_json(obj.req("workload")?)?,
        policy: policy_from_json(obj.req("policy")?)?,
        side_bonus: side_bonus_from_json(obj.req("side_bonus")?)?,
        horizon: get_usize(obj.req("horizon")?, CTX)?,
        replications: get_usize(obj.req("replications")?, CTX)?,
        seed: get_u64(obj.req("seed")?, CTX)?,
        feedback: feedback_from_json(obj.req("feedback")?)?,
    };
    obj.finish()?;
    spec.validate()?;
    Ok(spec)
}

pub(crate) fn fleet_to_json(spec: &FleetSpec) -> Json {
    Json::Object(vec![
        ("version".into(), Json::from_u64(spec.version)),
        ("name".into(), Json::String(spec.name.clone())),
        (
            "tenants".into(),
            Json::Array(
                spec.tenants
                    .iter()
                    .map(|t| {
                        Json::Object(vec![
                            ("id".into(), Json::String(t.id.clone())),
                            ("scenario".into(), scenario_to_json(&t.scenario)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

pub(crate) fn fleet_from_json(value: &Json) -> Result<FleetSpec, SpecError> {
    const CTX: &str = "FleetSpec";
    let mut obj = Obj::new(value, CTX)?;
    let version = get_u64(obj.req("version")?, CTX)?;
    if version != crate::model::SPEC_VERSION {
        return Err(SpecError::UnsupportedVersion {
            found: version,
            supported: crate::model::SPEC_VERSION,
        });
    }
    let name = get_str(obj.req("name")?, CTX)?.to_owned();
    let tenants_value = obj.req("tenants")?;
    let items = tenants_value.as_array().ok_or(SpecError::Invalid {
        context: CTX,
        message: "tenants must be an array".into(),
    })?;
    let mut tenants = Vec::with_capacity(items.len());
    for item in items {
        let mut tenant = Obj::new(item, "FleetTenant")?;
        let id = get_str(tenant.req("id")?, "FleetTenant")?.to_owned();
        let scenario = scenario_from_json(tenant.req("scenario")?)?;
        tenant.finish()?;
        tenants.push(FleetTenant { id, scenario });
    }
    obj.finish()?;
    let spec = FleetSpec {
        version,
        name,
        tenants,
    };
    spec.validate()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// text entry points on the public types
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Serialises the scenario to compact JSON.
    pub fn to_json_text(&self) -> String {
        scenario_to_json(self).to_text()
    }

    /// Serialises the scenario to indented JSON.
    pub fn to_json_pretty(&self) -> String {
        scenario_to_json(self).to_text_pretty()
    }

    /// Parses a scenario from JSON text (strict: unknown fields, unknown
    /// variants, and unsupported versions are errors).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        scenario_from_json(&parse(text)?)
    }
}

impl FleetSpec {
    /// Serialises the fleet to compact JSON.
    pub fn to_json_text(&self) -> String {
        fleet_to_json(self).to_text()
    }

    /// Serialises the fleet to indented JSON.
    pub fn to_json_pretty(&self) -> String {
        fleet_to_json(self).to_text_pretty()
    }

    /// Parses a fleet from JSON text (strict).
    pub fn from_json_text(text: &str) -> Result<Self, SpecError> {
        fleet_from_json(&parse(text)?)
    }
}
