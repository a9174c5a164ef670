//! The model zoo, seeded input selection, and the empirical bounds the
//! certified verdicts are checked against.

use raven::{replay_uap_delta, MonotonicityProblem, UapProblem, UapResult};
use raven_bench::models::{conv_model, fc_model, BenchModel, Training};
use raven_json::Json;
use raven_tensor::Rng;

/// Every network a workload may use, by the name the server registers it
/// under (the `.net` file stem).
pub const ZOO: [&str; 5] = ["fc-small", "fc-med", "fc-big", "conv-small", "fc-small-std"];

/// Trains (or fetches from the in-process cache) one zoo network.
pub fn model(name: &str) -> BenchModel {
    match name {
        "fc-small" | "fc-med" | "fc-big" => fc_model(name, Training::Pgd),
        "fc-small-std" => fc_model("fc-small", Training::Standard),
        "conv-small" => conv_model(Training::Pgd),
        other => panic!("unknown zoo model {other:?}"),
    }
}

/// A trained network with its lowered plan and the test points it
/// classifies correctly.
pub struct Entry {
    pub name: &'static str,
    pub model: BenchModel,
    pub plan: raven_nn::AnalysisPlan,
    correct: Vec<usize>,
}

impl Entry {
    /// Trains the network and lowers its plan: the workload's set-up.
    pub fn load(name: &'static str) -> Entry {
        let model = model(name);
        let plan = model.net.to_plan();
        let correct = (0..model.test.inputs.len())
            .filter(|&i| model.net.classify(&model.test.inputs[i]) == model.test.labels[i])
            .collect();
        Entry {
            name,
            model,
            plan,
            correct,
        }
    }

    /// The test-set indices of `k` distinct correctly classified points
    /// chosen by `rng`.
    pub fn batch_indices(&self, k: usize, rng: &mut Rng) -> Vec<usize> {
        assert!(
            self.correct.len() >= k,
            "{} has too few correct points",
            self.name
        );
        let mut idx = self.correct.clone();
        // Partial Fisher–Yates: the first k slots are a uniform k-subset.
        for i in 0..k {
            let j = i + rng.below(idx.len() - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// A UAP problem on the test points at `points`.
    pub fn uap_at(&self, points: &[usize], eps: f64) -> UapProblem {
        let t = &self.model.test;
        UapProblem {
            plan: self.plan.clone(),
            inputs: points.iter().map(|&i| t.inputs[i].clone()).collect(),
            labels: points.iter().map(|&i| t.labels[i]).collect(),
            eps,
        }
    }

    /// A UAP problem on a seeded batch.
    pub fn uap(&self, k: usize, eps: f64, rng: &mut Rng) -> UapProblem {
        self.uap_at(&self.batch_indices(k, rng), eps)
    }

    /// A monotonicity problem centred on a seeded test point, on a seeded
    /// feature.
    pub fn mono(&self, eps: f64, rng: &mut Rng) -> MonotonicityProblem {
        let point = self.batch_indices(1, rng)[0];
        self.mono_at(point, rng.below(self.plan.input_dim()), eps)
    }

    /// A monotonicity problem centred on the test point at `point`, on
    /// `feature`, with the server's default score (last logit minus first).
    pub fn mono_at(&self, point: usize, feature: usize, eps: f64) -> MonotonicityProblem {
        let center = self.model.test.inputs[point].clone();
        let odim = self.plan.output_dim();
        let mut weights = vec![0.0; odim];
        weights[0] = -1.0;
        weights[odim - 1] = 1.0;
        MonotonicityProblem {
            plan: self.plan.clone(),
            center,
            eps,
            feature,
            tau: eps,
            output_weights: weights,
            increasing: true,
        }
    }
}

/// The lowest accuracy a concrete shared perturbation reaches on the
/// batch: a PGD-style UAP attack and the verifier's own counterexample,
/// both replayed without clamping. A sound certified worst-case accuracy
/// can never exceed it.
fn empirical_uap_bound(entry: &Entry, problem: &UapProblem, res: &UapResult) -> f64 {
    let attack = raven_nn::attack::uap(
        &entry.model.net,
        &problem.inputs,
        &problem.labels,
        problem.eps,
        20,
        problem.eps / 4.0,
    );
    let mut bound = replay_uap_delta(
        &entry.model.net,
        &problem.inputs,
        &problem.labels,
        &attack.delta,
    );
    if let Some(delta) = &res.counterexample_delta {
        bound = bound.min(replay_uap_delta(
            &entry.model.net,
            &problem.inputs,
            &problem.labels,
            delta,
        ));
    }
    bound
}

/// Whether a certified worst-case accuracy respects the empirical bound
/// (with a little float slack).
pub fn uap_sound(entry: &Entry, problem: &UapProblem, res: &UapResult) -> bool {
    res.worst_case_accuracy <= empirical_uap_bound(entry, problem, res) + 1e-9
}

/// The `/v1/verify/uap` request body for a UAP problem.
pub fn uap_body(model: &str, p: &UapProblem, certificate: bool) -> String {
    let mut fields = vec![
        ("model", Json::from(model)),
        ("eps", Json::from(p.eps)),
        ("method", Json::from("raven")),
        (
            "inputs",
            Json::Arr(p.inputs.iter().map(|x| Json::num_array(x)).collect()),
        ),
        (
            "labels",
            Json::Arr(p.labels.iter().map(|&l| Json::from(l)).collect()),
        ),
    ];
    if certificate {
        fields.push(("certificate", Json::from(true)));
    }
    Json::obj(fields).to_string()
}

/// The `/v1/verify/mono` request body for a monotonicity problem.
pub fn mono_body(model: &str, p: &MonotonicityProblem, certificate: bool) -> String {
    let mut fields = vec![
        ("model", Json::from(model)),
        ("eps", Json::from(p.eps)),
        ("method", Json::from("raven")),
        ("center", Json::num_array(&p.center)),
        ("feature", Json::from(p.feature)),
        ("tau", Json::from(p.tau)),
        ("increasing", Json::from(p.increasing)),
        ("output_weights", Json::num_array(&p.output_weights)),
    ];
    if certificate {
        fields.push(("certificate", Json::from(true)));
    }
    Json::obj(fields).to_string()
}

/// Writes every zoo network as `<name>.net` into `dir`.
pub fn write_models(entries: &[Entry], dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for e in entries {
        raven_nn::save_network(&e.model.net, &dir.join(format!("{}.net", e.name)))
            .map_err(|err| std::io::Error::other(format!("{}: {err}", e.name)))?;
    }
    Ok(())
}
