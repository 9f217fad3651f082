//! Differential harness for the wire-level serving stack.
//!
//! The server must be a transparent front door: every byte a client gets
//! over a real socket must be exactly what the in-process service plane
//! produces for the same request. This harness replays the full 50-task
//! benchmark suite through `sst-server` — batch learn, batch apply, and
//! the interactive session loop — at engine pool widths 1, 2 and the
//! machine width, and asserts the NDJSON response bodies are
//! **bit-identical** to encoding the in-process `Engine::learn_batch` /
//! `Engine::apply_batch` / `Session::run_column` results with the same
//! wire codec.

use std::sync::Arc;

use semantic_strings::benchmarks::all_tasks;
use semantic_strings::core::{default_threads, SynthesisOptions};
use semantic_strings::prelude::*;
use semantic_strings::service::{encode_cell_lines, encode_lines, WireLearnResponse};

const MAX_EXAMPLES: usize = 3;

#[test]
fn served_responses_are_bit_identical_to_the_service_plane() {
    let wide = default_threads().max(2);
    let mut widths = vec![1usize, 2];
    if wide > 2 {
        widths.push(wide);
    }

    let tasks = all_tasks();
    for &threads in &widths {
        let options = SynthesisOptions {
            threads,
            ..Default::default()
        };

        // The served engines and their in-process twins share nothing but
        // the database contents and options: separate caches, separate
        // pools. Identical bytes must come out anyway.
        let engines: Vec<(String, Engine)> = tasks
            .iter()
            .map(|task| {
                (
                    format!("task-{}", task.id),
                    Engine::with_options(Arc::new(task.db.clone()), options.clone()),
                )
            })
            .collect();
        let server =
            Server::bind_named(engines, ServerConfig::default()).expect("bind equivalence server");
        let mut client = Client::connect(server.local_addr()).expect("connect");

        for task in &tasks {
            let name = format!("task-{}", task.id);
            let twin = Engine::with_options(Arc::new(task.db.clone()), options.clone());

            // The converged example sequence (derived on the twin; the
            // protocol is deterministic, so the server side would derive
            // the same one).
            let mut probe = twin.session();
            let outcome = probe
                .converge_with(&task.rows, MAX_EXAMPLES)
                .unwrap_or_else(|e| panic!("task {} ({}): {e}", task.id, task.name));
            let examples = probe.examples().to_vec();
            let inputs: Vec<Vec<String>> = task.rows.iter().map(|r| r.inputs.clone()).collect();

            // Batch learn: one request per example prefix, so the batch
            // mixes one- and multi-example learns.
            let learn_requests: Vec<LearnRequest> = (1..=examples.len())
                .map(|n| LearnRequest::new(examples[..n].to_vec()))
                .collect();
            let local_learn: Vec<WireLearnResponse> = twin
                .learn_batch(&learn_requests, None)
                .iter()
                .map(WireLearnResponse::from_response)
                .collect();
            let wire_learn = client
                .learn(&name, &learn_requests)
                .unwrap_or_else(|e| panic!("task {} ({}) learn: {e}", task.id, task.name));
            assert_eq!(
                encode_lines(&wire_learn),
                encode_lines(&local_learn),
                "task {} ({}) width {threads}: served learn bytes drifted",
                task.id,
                task.name
            );

            // Batch apply over the full input column.
            let apply_requests = vec![
                ApplyRequest::new(examples[..1].to_vec(), inputs.clone()),
                ApplyRequest::new(examples.clone(), inputs.clone()),
            ];
            let local_apply = twin.apply_batch(&apply_requests, None);
            let wire_apply = client
                .apply(&name, &apply_requests)
                .unwrap_or_else(|e| panic!("task {} ({}) apply: {e}", task.id, task.name));
            assert_eq!(
                encode_lines(&wire_apply),
                encode_lines(&local_apply),
                "task {} ({}) width {threads}: served apply bytes drifted",
                task.id,
                task.name
            );

            // The interactive loop: a served session fed the converged
            // examples must predict the same column as the twin session.
            let info = client
                .create_session(&name, &examples)
                .unwrap_or_else(|e| panic!("task {} ({}) create: {e}", task.id, task.name));
            let wire_cells = client
                .run_column(&name, info.session, &inputs)
                .unwrap_or_else(|e| panic!("task {} ({}) run_column: {e}", task.id, task.name));
            let mut local_session = twin.session();
            local_session.add_examples(examples.clone());
            let local_cells = local_session.run_column(&inputs).unwrap_or_else(|e| {
                panic!("task {} ({}) local run_column: {e}", task.id, task.name)
            });
            assert_eq!(
                encode_cell_lines(&wire_cells),
                encode_cell_lines(&local_cells),
                "task {} ({}) width {threads}: served column bytes drifted",
                task.id,
                task.name
            );
            if outcome.converged {
                let status = client
                    .status(&name, info.session)
                    .unwrap_or_else(|e| panic!("task {} ({}) status: {e}", task.id, task.name));
                // A converged conversation with no watched inputs reports
                // converged over the wire too.
                assert!(
                    status.is_converged(),
                    "task {} ({}) width {threads}: wire status disagrees",
                    task.id,
                    task.name
                );
            }
            client
                .close_session(&name, info.session)
                .unwrap_or_else(|e| panic!("task {} ({}) close: {e}", task.id, task.name));
        }
    }
}
