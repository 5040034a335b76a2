"""CLI surface: python -m repro."""

import pytest

from repro.__main__ import build_parser, main
from repro.pipeline import clear_memo


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_memo()
    yield
    clear_memo()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in (
            "info", "quickstart", "build", "attack", "table3", "figure5",
            "scenarios", "serve", "submit", "report",
        ):
            args = parser.parse_args(
                [cmd] + (["tiny_a"] if cmd in ("build", "attack") else [])
            )
            assert callable(args.fn)
        assert callable(parser.parse_args(["sweep", "table3"]).fn)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "cell library" in out
        assert "c6288" in out

    def test_build(self, capsys, tmp_path):
        out_path = tmp_path / "tiny.def"
        assert main(["build", "tiny_a", "--out", str(out_path)]) == 0
        assert out_path.exists()
        assert "wirelength" in capsys.readouterr().out

    def test_attack_baselines(self, capsys):
        assert main(
            ["attack", "tiny_a", "--layer", "3", "--attacks", "proximity", "flow"]
        ) == 0
        out = capsys.readouterr().out
        assert "proximity" in out
        assert "networkflow" in out

    def test_attack_records_to_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "r2"))
        assert main(
            ["attack", "tiny_a", "--layer", "3", "--attacks", "proximity"]
        ) == 0
        out = capsys.readouterr().out
        assert "proximity" in out
        from repro.experiments import ResultsStore

        store = ResultsStore()
        assert store.path == tmp_path / "r2" / "experiments.jsonl"
        assert len(store.query(design="tiny_a", attack="proximity")) == 1

    def test_scenarios_lists_grids(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for grid in ("table3", "figure5", "defense-sweep", "attack-matrix",
                     "cross-defense"):
            assert grid in out

    def test_scenarios_expands_grid(self, capsys):
        assert main([
            "scenarios", "defense-sweep", "--param", "design=tiny_a",
            "--param", "perturbations=[4.0]", "--param", "lift_fractions=[]",
        ]) == 0
        out = capsys.readouterr().out
        assert "tiny_a" in out
        assert "perturb +-4 tracks" in out
        assert "4 scenarios" in out  # (baseline + perturb) x (prox, flow)

    def test_sweep_runs_grid_and_resumes(self, capsys):
        argv = [
            "sweep", "attack-matrix",
            "--param", "designs=tiny_a",
            "--param", "split_layers=[3]",
            "--param", 'attacks=["proximity"]',
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 evaluated, 0 from store" in out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 evaluated, 1 from store" in out

    def test_sweep_unknown_grid_errors(self):
        with pytest.raises(KeyError):
            main(["sweep", "not_a_grid"])

    def test_report_summarises_store(self, capsys):
        assert main([
            "sweep", "attack-matrix",
            "--param", "designs=tiny_a",
            "--param", "split_layers=[3]",
            "--param", 'attacks=["proximity"]',
        ]) == 0
        capsys.readouterr()
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "1 scenarios" in out
        assert "proximity" in out
        assert "slowest nodes" in out
        assert main(["report", "--design", "no_such_design"]) == 0
        assert "no records" in capsys.readouterr().out
        # pagination: a 1-record page, with the total in the title
        assert main(["report", "--limit", "1", "--offset", "0"]) == 0
        out = capsys.readouterr().out
        assert "records 1-1 of 1" in out
        assert main(["report", "--limit", "5", "--offset", "99"]) == 0
        assert "no records" in capsys.readouterr().out

    def test_serve_and_submit_round_trip(self, capsys, tmp_path):
        # `serve` blocks, so drive its parts directly and point the
        # `submit` command at the live ephemeral port.
        from repro.experiments import ResultsStore
        from repro.service import AttackService

        service = AttackService(
            store=ResultsStore(tmp_path / "exp.jsonl"),
            queue_path=tmp_path / "queue.jsonl",
        )
        service.scheduler.poll_interval = 0.01
        service.start()
        try:
            assert main([
                "submit", "attack-matrix",
                "--param", "designs=tiny_a",
                "--param", "split_layers=[3]",
                "--param", 'attacks=["proximity"]',
                "--url", service.url, "--wait", "--timeout", "60",
            ]) == 0
            out = capsys.readouterr().out
            assert "queued:" in out
            assert "tiny_a" in out
        finally:
            service.stop()

    def test_submit_requires_grid_or_spec_file(self):
        with pytest.raises(SystemExit):
            main(["submit", "--url", "http://127.0.0.1:1"])

    def test_submit_cancel_round_trip(self, capsys, tmp_path):
        # HTTP thread only (no scheduler), so the job stays queued and
        # `submit --cancel` lands deterministically.
        import threading

        from repro.experiments import ResultsStore
        from repro.service import AttackService

        service = AttackService(
            store=ResultsStore(tmp_path / "exp.jsonl"),
            queue_path=tmp_path / "queue.jsonl",
        )
        http_thread = threading.Thread(
            target=service.httpd.serve_forever, daemon=True
        )
        http_thread.start()
        try:
            assert main([
                "submit", "attack-matrix",
                "--param", "designs=tiny_a",
                "--param", "split_layers=[3]",
                "--param", 'attacks=["proximity"]',
                "--url", service.url,
            ]) == 0
            out = capsys.readouterr().out
            job_id = out.split(":", 1)[1].split()[0]
            # Grid submissions keep their provenance in the journal
            # (server-side expansion, like a raw HTTP submission).
            assert service.queue.get(job_id).source.get("grid") \
                == "attack-matrix"
            assert main([
                "submit", "--cancel", job_id, "--url", service.url,
            ]) == 0
            assert "cancelled" in capsys.readouterr().out
            assert service.queue.get(job_id).status == "cancelled"
            # Cancelling a terminal job reports failure (exit 1).
            assert main([
                "submit", "--cancel", job_id, "--url", service.url,
            ]) == 1
        finally:
            service.httpd.shutdown()
            service.httpd.server_close()
            http_thread.join(5.0)
            service.scheduler.executor.close()

    def test_unknown_design_errors(self):
        with pytest.raises(KeyError):
            main(["build", "not_a_design"])
