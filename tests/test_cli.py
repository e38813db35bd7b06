"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.programs import ALARM_SOURCE, COUNTER_SOURCE


@pytest.fixture()
def counter_file(tmp_path):
    path = tmp_path / "count.sig"
    path.write_text(COUNTER_SOURCE)
    return str(path)


@pytest.fixture()
def alarm_file(tmp_path):
    path = tmp_path / "alarm.sig"
    path.write_text(ALARM_SOURCE)
    return str(path)


class TestEmit:
    def test_default_emits_tree_and_free_clocks(self, counter_file, capsys):
        assert main([counter_file]) == 0
        output = capsys.readouterr().out
        assert "^N" in output
        assert "free clocks:" in output

    def test_emit_clocks(self, counter_file, capsys):
        assert main([counter_file, "--emit", "clocks"]) == 0
        output = capsys.readouterr().out
        assert "clock system of COUNT" in output
        assert "^ZN = ^N" in output

    def test_emit_kernel(self, counter_file, capsys):
        assert main([counter_file, "--emit", "kernel"]) == 0
        assert "kernel form" in capsys.readouterr().out

    def test_emit_python(self, counter_file, capsys):
        assert main([counter_file, "--emit", "python"]) == 0
        assert "class COUNT_step" in capsys.readouterr().out

    def test_emit_c_flat(self, counter_file, capsys):
        assert main([counter_file, "--emit", "c", "--flat"]) == 0
        output = capsys.readouterr().out
        assert "void COUNT_step(void)" in output
        assert "/* style: flat */" in output

    def test_emit_stats_is_json(self, counter_file, capsys):
        assert main([counter_file, "--emit", "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["free_clocks"] == 1
        assert stats["unresolved"] == 0

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(COUNTER_SOURCE))
        assert main(["-"]) == 0
        assert "^N" in capsys.readouterr().out


class TestBatch:
    def test_batch_compiles_many_files(self, counter_file, alarm_file, capsys):
        assert main(["batch", counter_file, alarm_file]) == 0
        output = capsys.readouterr().out
        assert "compiled 2 program(s)" in output
        assert "process COUNT" in output
        assert "process ALARM" in output

    def test_batch_repeat_hits_the_cache(self, counter_file, capsys):
        assert main(["batch", counter_file, "--repeat", "2"]) == 0
        output = capsys.readouterr().out
        assert "round 2: compiled 1 program(s)" in output
        assert "(1 cache hit(s))" in output

    def test_batch_cache_stats_json(self, counter_file, alarm_file, capsys):
        assert main(["batch", counter_file, alarm_file, "--cache-stats"]) == 0
        output = capsys.readouterr().out
        stats = json.loads(output[output.index("{"):])
        assert stats["requests"] == 2
        assert stats["cache_entries"] == 2

    def test_batch_rejects_non_positive_max_entries(self, counter_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", counter_file, "--max-entries", "0"])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_batch_missing_file_reports_error(self, counter_file, capsys):
        assert main(["batch", counter_file, "/nonexistent/program.sig"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("prefix", [[], ["batch"]], ids=["single", "batch"])
    def test_non_utf8_source_reports_error(self, tmp_path, capsys, prefix):
        path = tmp_path / "latin1.sig"
        path.write_bytes(b"process P = ( ? integer A; ! integer X; ) (| X := A |) end; \xff")
        assert main(prefix + [str(path)]) == 2
        assert f"error: cannot read {path}: " in capsys.readouterr().err

    def test_batch_compile_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main(["batch", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_batch_compile_error_names_the_failing_file(
        self, counter_file, tmp_path, capsys
    ):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main(["batch", counter_file, str(path), counter_file]) == 1
        assert "broken.sig" in capsys.readouterr().err

    def test_batch_process_workers(self, counter_file, alarm_file, capsys):
        assert main(["batch", counter_file, alarm_file, "--jobs", "2"]) == 0
        output = capsys.readouterr().out
        assert "compiled 2 program(s)" in output
        assert "process worker(s)" in output
        assert "process COUNT" in output
        assert "process ALARM" in output

    def test_batch_process_workers_name_the_failing_file(
        self, counter_file, tmp_path, capsys
    ):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main(["batch", counter_file, str(path), "--jobs", "2"]) == 1
        assert "broken.sig" in capsys.readouterr().err


class TestServeArguments:
    def test_serve_parser_accepts_the_scaling_flags(self):
        from repro.cli import build_serve_argument_parser

        arguments = build_serve_argument_parser().parse_args([
            "--jobs", "2",
            "--log-requests", "requests.log",
            "--store", "cache-dir", "--store-max-bytes", "1000000",
        ])
        assert arguments.jobs == 2
        assert arguments.log_requests == "requests.log"
        assert arguments.store_max_bytes == 1000000

    def test_log_requests_without_path_means_stdout(self):
        from repro.cli import build_serve_argument_parser

        arguments = build_serve_argument_parser().parse_args(["--log-requests"])
        assert arguments.log_requests == "-"
        assert build_serve_argument_parser().parse_args([]).log_requests is None

    def test_store_max_bytes_requires_store(self, capsys):
        from repro.cli import run_serve

        assert run_serve(["--store-max-bytes", "1000"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_workers_defaults_to_processes_only_when_parallel(self, monkeypatch):
        """``serve --jobs N`` compiles on worker processes exactly when N > 1."""
        from repro import cli

        created = []

        class FakeDaemon:
            def __init__(self, **options):
                created.append(options["workers"])

            def run(self, **options):
                pass

        monkeypatch.setattr(cli, "CompilationDaemon", FakeDaemon)
        assert cli.run_serve([]) == 0
        assert cli.run_serve(["--jobs", "4"]) == 0
        assert created == ["threads", "processes"]


class TestGatewayArguments:
    def test_gateway_parser_accepts_backends_and_tuning(self):
        from repro.cli import build_gateway_argument_parser

        arguments = build_gateway_argument_parser().parse_args([
            "--backend", "127.0.0.1:7420", "--backend", "./b1.sock",
            "--socket", "gw.sock", "--backend-timeout", "10",
            "--connect-timeout", "1", "--health-interval", "0.5",
            "--no-local-fallback", "--jobs", "4",
        ])
        assert arguments.backend == ["127.0.0.1:7420", "./b1.sock"]
        assert arguments.socket == "gw.sock"
        assert arguments.backend_timeout == 10.0
        assert arguments.connect_timeout == 1.0
        assert arguments.health_interval == 0.5
        assert arguments.no_local_fallback is True
        assert arguments.jobs == 4

    def test_gateway_rejects_a_bad_backend_spec(self, capsys):
        from repro.cli import run_gateway

        assert run_gateway(["--backend", "host:notaport"]) == 2
        assert "invalid backend spec" in capsys.readouterr().err


class TestRemoteCompileArguments:
    def test_remote_parser_accepts_timeout_and_retries(self):
        from repro.cli import build_remote_argument_parser

        arguments = build_remote_argument_parser().parse_args([
            "a.sig", "--port", "7420", "--timeout", "5", "--retries", "3",
        ])
        assert arguments.timeout == 5.0
        assert arguments.retries == 3
        defaults = build_remote_argument_parser().parse_args(["a.sig", "--port", "1"])
        assert defaults.timeout == 60.0
        assert defaults.retries == 0

    def test_remote_parser_accepts_modular(self):
        from repro.cli import build_remote_argument_parser

        arguments = build_remote_argument_parser().parse_args([
            "a.sig", "--port", "7420", "--modular",
        ])
        assert arguments.modular is True
        defaults = build_remote_argument_parser().parse_args(["a.sig", "--port", "1"])
        assert defaults.modular is False

    def test_remote_rejects_negative_retries(self, counter_file, capsys):
        from repro.cli import run_remote_compile

        assert run_remote_compile(
            [counter_file, "--port", "1", "--retries", "-1"]
        ) == 2
        assert "non-negative" in capsys.readouterr().err


class TestSimulationAndErrors:
    def test_simulate_prints_timing_diagram(self, alarm_file, capsys):
        assert main([alarm_file, "--simulate", "5", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "simulation (5 reactions" in output
        assert "BRAKING_STATE" in output

    def test_missing_file_reports_error(self, capsys):
        assert main(["/nonexistent/program.sig"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_compile_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "broken.sig"
        path.write_text(
            "process P = ( ? integer A; ! integer X, Y; ) (| X := Y + A | Y := X + A |) end;"
        )
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_parse_error_reports_and_fails(self, tmp_path, capsys):
        path = tmp_path / "syntax.sig"
        path.write_text("process P = (| |) end")
        assert main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err


PIPELINE_SOURCE = """
process PIPE =
  ( ? integer RAW at edge; boolean ENABLE at edge;
    ! integer SMOOTH at edge; integer TOTAL at cloud; )
  (| ZRAW := RAW $ 1 init 0
   | SMOOTH := (RAW + ZRAW) / 2
   | SAMPLE := SMOOTH when ENABLE
   | ZTOTAL := TOTAL $ 1 init 0
   | TOTAL := SAMPLE + ZTOTAL at cloud
  |)
  where integer ZRAW, SAMPLE, ZTOTAL;
end;
"""


class TestSimulateDistributed:
    @pytest.fixture()
    def pipeline_file(self, tmp_path):
        path = tmp_path / "pipe.sig"
        path.write_text(PIPELINE_SOURCE)
        return str(path)

    def _summary(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return json.loads(captured.out)

    @pytest.mark.parametrize("style", [[], ["--flat"]], ids=["hierarchical", "flat"])
    def test_composite_presence_matches_the_monolithic_simulation(
        self, pipeline_file, capsys, style
    ):
        """``--distributed`` (``--flat`` included) steps the same schedules
        as the monolithic population and sees the same outputs."""
        common = ["--instances", "3", "--ticks", "24", "--seed", "4", "--json"] + style
        composite = self._summary(
            ["simulate", pipeline_file, "--distributed"] + common, capsys
        )
        monolithic = self._summary(
            ["simulate", pipeline_file, "--backend", "python"] + common, capsys
        )
        assert composite["backend"] == "distributed"
        assert composite["locations"] == ["edge", "cloud"]
        assert composite["outputs"] == monolithic["outputs"]
        assert sum(composite["outputs"].values()) > 0
