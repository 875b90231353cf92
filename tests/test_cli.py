"""Tests for the command-line interface and DOT export."""

import json

import pytest

from repro.cli import main

COUNT_PUNCT = '''
fn count_punct(buf: u8[], n: u32) {
    var num_dot: u8 = 0;
    var num_qm: u8 = 0;
    var common: u8 = 0;
    var num: u8 = 0;
    enclose (num_dot, num_qm) {
        var i: u32 = 0;
        while (i < n) {
            if (buf[i] == '.') { num_dot = num_dot + 1; }
            else if (buf[i] == '?') { num_qm = num_qm + 1; }
            i = i + 1;
        }
    }
    enclose (common, num) {
        if (num_dot > num_qm) { common = '.'; num = num_dot; }
        else { common = '?'; num = num_qm; }
    }
    while (num != 0) { print_char(common); num = num - 1; }
}
fn main() {
    var buf: u8[256];
    var n: u32 = read_secret(buf, 256);
    count_punct(buf, n);
}
'''

UNARY = """
fn main() {
    var n: u8 = secret_u8();
    while (n != 0) { print_char('x'); n = n - 1; }
}
"""


@pytest.fixture
def program(tmp_path):
    path = tmp_path / "cp.fl"
    path.write_text(COUNT_PUNCT)
    return str(path)


class TestMeasure:
    def test_human_output(self, program, capsys):
        assert main(["measure", program, "--secret", "........????"]) == 0
        out = capsys.readouterr().out
        assert "flow bound: 9 bits" in out
        assert "minimum cut" in out

    def test_json_output(self, program, capsys):
        assert main(["measure", program, "--secret", "..?",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "bits" in payload
        assert "cut" in payload

    def test_hex_input(self, program, capsys):
        assert main(["measure", program, "--secret-hex", "2e2e3f"]) == 0
        assert "flow bound" in capsys.readouterr().out

    def test_file_input(self, program, tmp_path, capsys):
        secret = tmp_path / "in.bin"
        secret.write_bytes(b"..??")
        assert main(["measure", program,
                     "--secret-file", str(secret)]) == 0

    def test_conflicting_inputs_rejected(self, program):
        with pytest.raises(SystemExit):
            main(["measure", program, "--secret", "x",
                  "--secret-hex", "00"])

    def test_save_policy_and_dot(self, program, tmp_path, capsys):
        policy_path = tmp_path / "pol.json"
        dot_path = tmp_path / "g.dot"
        assert main(["measure", program, "--secret", "........????",
                     "--save-policy", str(policy_path),
                     "--dot", str(dot_path)]) == 0
        policy = json.loads(policy_path.read_text())
        assert policy["max_bits"] == 9
        dot = dot_path.read_text()
        assert dot.startswith("digraph")
        assert "penwidth=2.5" in dot  # cut edges highlighted

    def test_compile_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.fl"
        bad.write_text("fn main() { oops = 1; }")
        assert main(["measure", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestCheckAndLockstep:
    @pytest.fixture
    def policy(self, program, tmp_path, capsys):
        path = tmp_path / "pol.json"
        main(["measure", program, "--secret", "........????",
              "--save-policy", str(path)])
        capsys.readouterr()
        return str(path)

    def test_check_pass(self, program, policy, capsys):
        assert main(["check", program, "--policy", policy,
                     "--secret", "..??.?.?...."]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_violation(self, program, policy, tmp_path, capsys):
        leaky = tmp_path / "leaky.fl"
        leaky.write_text(COUNT_PUNCT.replace(
            "count_punct(buf, n);",
            "count_punct(buf, n); output(buf[0]);"))
        assert main(["check", str(leaky), "--policy", policy,
                     "--secret", "........????"]) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_lockstep_pass(self, program, policy, capsys):
        assert main(["lockstep", program, "--policy", policy,
                     "--secret", "........????",
                     "--dummy", "?.?.?.?.?.?."]) == 0
        assert "bits forwarded" in capsys.readouterr().out


class TestBatch:
    def test_human_output(self, program, capsys):
        assert main(["batch", program, "--secret", "........????",
                     "--secret", "..?"]) == 0
        out = capsys.readouterr().out
        assert "2 runs across 1 job slot(s)" in out
        assert "per-run bounds" in out
        assert "flow bound" in out

    def test_json_output_and_jobs(self, program, capsys):
        assert main(["batch", program, "--jobs", "2",
                     "--secret", "........????", "--secret", "..?",
                     "--secret-hex", "2e3f2e", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"] == 3
        assert payload["jobs"] == 2
        assert len(payload["per_run_bits"]) == 3
        assert payload["combined_bits"] >= max(payload["per_run_bits"])
        assert "cut" in payload

    def test_jobs_match_serial(self, program, capsys):
        assert main(["batch", program, "--secret", "....",
                     "--secret", "??..", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["batch", program, "--jobs", "2",
                     "--secret", "....", "--secret", "??..",
                     "--json"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        for key in ("combined_bits", "per_run_bits", "cut"):
            assert parallel[key] == serial[key]

    def test_secret_files(self, program, tmp_path, capsys):
        paths = []
        for index, payload in enumerate((b"..??", b"?")):
            path = tmp_path / ("s%d.bin" % index)
            path.write_bytes(payload)
            paths.append(str(path))
        assert main(["batch", program,
                     "--secret-file", paths[0],
                     "--secret-file", paths[1]]) == 0
        assert "2 runs" in capsys.readouterr().out

    def test_no_secrets_rejected(self, program, capsys):
        assert main(["batch", program]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_metrics_json_has_batch_keys(self, program, tmp_path, capsys):
        metrics_file = tmp_path / "m.json"
        assert main(["batch", program, "--secret", "..?",
                     "--secret", "?.?", "--metrics=json",
                     "--metrics-file", str(metrics_file)]) == 0
        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["batch.jobs"] == 2
        assert snapshot["batch.workers"] == 1
        assert snapshot["batch.graphs_bytes"] > 0


CRASHY = """
fn main() {
    var x: u8 = secret_u8();
    output(250 / x);
}
"""

HANG = """
fn main() {
    var x: u8 = secret_u8();
    var i: u32 = 0;
    while (x > 100) {
        i = i + 1;
    }
    output(x);
}
"""


@pytest.fixture
def crashy(tmp_path):
    path = tmp_path / "crashy.fl"
    path.write_text(CRASHY)
    return str(path)


@pytest.fixture
def hang(tmp_path):
    path = tmp_path / "hang.fl"
    path.write_text(HANG)
    return str(path)


class TestBatchFaults:
    def test_collect_reports_partial_and_exits_1(self, crashy, capsys):
        assert main(["batch", crashy, "--secret-hex", "05",
                     "--secret-hex", "00", "--secret-hex", "0a",
                     "--on-error", "collect", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["partial"] is True
        assert payload["runs"] == 2
        assert payload["attempted"] == 3
        assert [f["index"] for f in payload["failures"]] == [1]
        assert payload["failures"][0]["error_type"] == "VMError"

    def test_collect_human_output_names_failure(self, crashy, capsys):
        assert main(["batch", crashy, "--secret-hex", "05",
                     "--secret-hex", "00", "--on-error", "collect"]) == 1
        out = capsys.readouterr().out
        assert "PARTIAL: 1 of 2 runs failed" in out
        assert "run 1: VMError" in out
        assert "PARTIAL: failed runs excluded" in out

    def test_default_raise_mode_exits_2(self, crashy, capsys):
        assert main(["batch", crashy, "--secret-hex", "05",
                     "--secret-hex", "00"]) == 2
        assert "division by zero" in capsys.readouterr().err

    def test_clean_batch_still_exits_0(self, crashy, capsys):
        assert main(["batch", crashy, "--secret-hex", "05",
                     "--secret-hex", "0a", "--on-error", "collect",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partial"] is False
        assert payload["failures"] == []

    def test_timeout_cuts_off_hung_job(self, hang, capsys):
        import time
        t0 = time.monotonic()
        assert main(["batch", hang, "--jobs", "2",
                     "--secret-hex", "20", "--secret-hex", "ff",
                     "--timeout", "2", "--on-error", "collect",
                     "--json"]) == 1
        assert time.monotonic() - t0 < 30.0
        payload = json.loads(capsys.readouterr().out)
        assert [f["error_type"] for f in payload["failures"]] == \
            ["JobTimeout"]

    def test_deadline_fails_runaway_run(self, hang, capsys):
        assert main(["batch", hang, "--secret-hex", "20",
                     "--secret-hex", "ff", "--deadline", "0.3",
                     "--on-error", "collect", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["error_type"] for f in payload["failures"]] == \
            ["VMTimeout"]

    def test_fault_counters_in_metrics(self, crashy, tmp_path, capsys):
        metrics_file = tmp_path / "m.json"
        assert main(["batch", crashy, "--secret-hex", "05",
                     "--secret-hex", "00", "--on-error", "collect",
                     "--metrics=json", "--metrics-file",
                     str(metrics_file)]) == 1
        snapshot = json.loads(metrics_file.read_text())
        assert snapshot["batch.failures"] == 1
        assert snapshot["batch.timeouts"] == 0


class TestMeasureBudgets:
    def test_deadline_flag(self, hang, capsys):
        assert main(["measure", hang, "--secret-hex", "ff",
                     "--deadline", "0.3"]) == 2
        assert "wall-clock deadline exceeded" in capsys.readouterr().err

    def test_max_steps_flag(self, hang, capsys):
        assert main(["measure", hang, "--secret-hex", "ff",
                     "--max-steps", "1000"]) == 2
        assert "execution budget exceeded" in capsys.readouterr().err

    def test_budgets_leave_good_runs_alone(self, hang, capsys):
        assert main(["measure", hang, "--secret-hex", "20",
                     "--deadline", "5", "--max-steps", "100000"]) == 0
        assert "flow bound" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["measure", "batch"])
    @pytest.mark.parametrize("flag, value", [
        ("--max-steps", "0"), ("--max-steps", "-3"), ("--max-steps", "2.5"),
        ("--deadline", "0"), ("--deadline", "-1"), ("--deadline", "nan")])
    def test_bad_budget_is_a_usage_error(self, program, capsys, command,
                                         flag, value):
        argv = [command, program, "--secret-hex", "ff", flag, value]
        if command == "batch":
            argv += ["--jobs", "2"]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s: must be a positive" % flag in err
        assert "Traceback" not in err


class TestTraceFlag:
    def test_measure_writes_chrome_trace(self, program, tmp_path, capsys):
        trace = tmp_path / "out.json"
        assert main(["measure", program, "--secret", "..?",
                     "--trace", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        names = {e["name"] for e in slices}
        assert {"cli.command", "lang.measure", "solve.dinic"} <= names
        command = next(e for e in slices if e["name"] == "cli.command")
        assert command["args"]["status"] == 0

    def test_measure_writes_jsonl(self, program, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        assert main(["measure", program, "--secret", "..?",
                     "--trace", str(trace)]) == 0
        spans = [json.loads(line)
                 for line in trace.read_text().splitlines()]
        assert any(s["name"] == "cli.command" for s in spans)
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["cli.command"]

    def test_batch_trace_has_worker_tracks(self, program, tmp_path,
                                           capsys):
        trace = tmp_path / "out.json"
        assert main(["batch", program, "--jobs", "2",
                     "--secret", "..?", "--secret", "?.?",
                     "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        tracks = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert "repro parent" in tracks
        # Two jobs over two workers; the pool may put both on one.
        assert 1 <= sum(1 for t in tracks if t.startswith("worker ")) <= 2
        slices = [e for e in events if e["ph"] == "X"]
        map_ids = {e["args"]["span_id"] for e in slices
                   if e["name"] == "batch.map"}
        jobs = [e for e in slices if e["name"] == "batch.job"]
        assert len(jobs) == 2
        assert all(e["args"]["parent_id"] in map_ids for e in jobs)

    def test_trace_leaves_tracer_disabled_afterwards(self, program,
                                                     tmp_path, capsys):
        from repro import obs
        assert main(["measure", program, "--secret", "..?",
                     "--trace", str(tmp_path / "t.json")]) == 0
        assert obs.get_tracer() is obs.NULL_TRACER
        assert main(["measure", program, "--secret", "..?"]) == 0
        assert obs.get_tracer() is obs.NULL_TRACER

    def test_unwritable_trace_file_fails(self, program, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "t.json"
        assert main(["measure", program, "--secret", "..?",
                     "--trace", str(target)]) == 2
        assert "cannot write trace file" in capsys.readouterr().err


class TestMetricsFileErrors:
    def test_unwritable_metrics_file_fails(self, program, tmp_path,
                                           capsys):
        target = tmp_path / "no" / "such" / "dir" / "m.json"
        assert main(["measure", program, "--secret", "..?",
                     "--metrics=json", "--metrics-file",
                     str(target)]) == 2
        assert "cannot write metrics file" in capsys.readouterr().err

    def test_metrics_disabled_after_write_failure(self, program, tmp_path,
                                                  capsys):
        from repro import obs
        main(["measure", program, "--secret", "..?", "--metrics=json",
              "--metrics-file", str(tmp_path / "no" / "dir" / "m.json")])
        capsys.readouterr()
        assert obs.get_metrics() is obs.NULL_METRICS


class TestStaticAndDisasm:
    def test_static_formula(self, tmp_path, capsys):
        path = tmp_path / "un.fl"
        path.write_text(UNARY)
        # UNARY starts with a newline, so the loop sits on line 4.
        assert main(["static", str(path), "--bound", "4=5",
                     "--formula"]) == 0
        out = capsys.readouterr().out
        assert "loops at lines: [4]" in out
        assert "static bound: 6 bits" in out
        assert "N4" in out

    def test_disasm(self, tmp_path, capsys):
        path = tmp_path / "un.fl"
        path.write_text(UNARY)
        assert main(["disasm", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fn main" in out
        assert "CALLB" in out


class TestDotExport:
    def test_refuses_huge_graphs(self):
        from repro.graph.dot import to_dot
        from repro.graph.generators import layered_dag
        big = layered_dag(60, 40, seed=0)
        if big.num_edges > 2000:
            with pytest.raises(ValueError):
                to_dot(big)

    def test_inf_rendered(self):
        from repro.graph.dot import to_dot
        from repro.graph.flowgraph import INF, FlowGraph
        g = FlowGraph()
        g.add_edge(g.source, g.sink, INF)
        assert 'label="inf"' in to_dot(g)
