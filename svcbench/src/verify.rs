//! Per-run verification: what the daemon reports must match what the
//! clients were acknowledged and what an in-process session computes.

use serde::Value;

use delicious_sim::generator::generate_with;
use tagging_core::model::TagDictionary;
use tagging_runtime::Runtime;
use tagging_server::protocol::{default_scenario_params, generator_config};
use tagging_sim::engine::RunConfig;
use tagging_sim::scenario::Scenario;
use tagging_sim::session::LiveSession;
use tagging_strategies::StrategyKind;

use crate::client::Conn;
use crate::fleet::SessionSpec;

/// ω the daemon applies when a registration names none.
const DEFAULT_OMEGA: usize = 5;

/// The scenario a registration of `spec` builds on the daemon, plus the
/// corpus dictionary the session interns reported tags into.
pub fn scenario_of(spec: &SessionSpec) -> (Scenario, TagDictionary) {
    let runtime = Runtime::new(1);
    let corpus = generate_with(
        &generator_config(spec.resources, spec.corpus_seed),
        &runtime,
    );
    let dictionary = corpus.corpus.tags.clone();
    let scenario = Scenario::from_corpus_with(&corpus, &default_scenario_params(), &runtime);
    (scenario, dictionary)
}

/// A fresh session over `scenario`, configured as the daemon configures a
/// registration of `spec`.
pub fn open_session(
    spec: &SessionSpec,
    scenario: Scenario,
    dictionary: TagDictionary,
) -> LiveSession<'static> {
    let kind = StrategyKind::parse(spec.strategy).expect("fleet strategies are valid");
    let config = RunConfig {
        budget: spec.budget as usize,
        omega: DEFAULT_OMEGA,
        seed: spec.session_seed,
    };
    LiveSession::new(scenario, kind, &config).with_dictionary(dictionary)
}

/// The allocation an in-process session reaches after spending `spent`.
/// For FP and RR the allocation is a pure function of the spend, so the
/// daemon's must equal it whatever the interleaving of leases was.
pub fn reference_allocation(spec: &SessionSpec, spent: u64) -> Vec<u64> {
    let (scenario, dictionary) = scenario_of(spec);
    let mut session = open_session(spec, scenario, dictionary);
    session.next_batch(spent as usize);
    session
        .metrics()
        .allocation
        .iter()
        .map(|&x| x as u64)
        .collect()
}

/// One session's state as `GET /scenarios/{id}/metrics` reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Served {
    /// Tasks allocated so far.
    pub budget_spent: u64,
    /// Leased tasks not yet reported.
    pub pending_tasks: u64,
    /// Tasks allocated per resource.
    pub allocation: Vec<u64>,
}

/// Reads session `id`'s metrics over `conn`.
pub fn served(conn: &mut Conn, id: usize) -> Result<Served, String> {
    let text = conn.get_ok(&format!("/scenarios/{id}/metrics"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("metrics of {id}: {e}"))?;
    let uint = |key: &str| match value.get(key) {
        Some(Value::UInt(n)) => Ok(*n),
        other => Err(format!("metrics of {id}: `{key}` is {other:?}")),
    };
    let allocation = match value.get("allocation") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|v| match v {
                Value::UInt(n) => Ok(*n),
                other => Err(format!("metrics of {id}: allocation entry {other:?}")),
            })
            .collect::<Result<_, _>>()?,
        other => return Err(format!("metrics of {id}: allocation is {other:?}")),
    };
    Ok(Served {
        budget_spent: uint("budget_spent")?,
        pending_tasks: uint("pending_tasks")?,
        allocation,
    })
}

/// Checks every session of `fleet` against `expected_spent` (history plus
/// what clients were acknowledged). Returns how many checks ran and the
/// failures. With `allocations`, FP and RR sessions are also compared with
/// [`reference_allocation`].
pub fn check_fleet(
    conn: &mut Conn,
    fleet: &[SessionSpec],
    expected_spent: &[u64],
    allocations: bool,
) -> Result<(u64, Vec<String>), String> {
    let mut served_all = Vec::new();
    for id in 1..=fleet.len() {
        served_all.push(served(conn, id)?);
    }
    Ok(compare(fleet, expected_spent, &served_all, allocations))
}

/// The comparisons behind [`check_fleet`], on already-fetched state.
pub fn compare(
    fleet: &[SessionSpec],
    expected_spent: &[u64],
    served: &[Served],
    allocations: bool,
) -> (u64, Vec<String>) {
    let mut checks = 0;
    let mut failures = Vec::new();
    for (i, (spec, state)) in fleet.iter().zip(served).enumerate() {
        let id = i + 1;
        checks += 2;
        if state.budget_spent != expected_spent[i] {
            failures.push(format!(
                "session {id}: daemon spent {} but clients were acknowledged {}",
                state.budget_spent, expected_spent[i]
            ));
        }
        if state.pending_tasks != 0 {
            failures.push(format!(
                "session {id}: {} tasks still pending",
                state.pending_tasks
            ));
        }
        if allocations && matches!(spec.strategy, "FP" | "RR") {
            checks += 1;
            if state.allocation != reference_allocation(spec, state.budget_spent) {
                failures.push(format!(
                    "session {id} ({}): allocation differs from an in-process session at spend {}",
                    spec.strategy, state.budget_spent
                ));
            }
        }
    }
    (checks, failures)
}
