"""Repository scripts: importability."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    path = ROOT / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestRunFullExperiments:
    def test_importable_with_parser(self):
        mod = load_script("run_full_experiments")
        assert callable(mod.main)
        assert mod.QUICK_DESIGNS
        assert len(mod.FIGURE5_DESIGNS) >= 4


class TestQuickstart:
    """The documented demo leaves no files behind, ``--help`` included."""

    def run(self, args, cwd):
        import os
        import subprocess

        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("REPRO_CACHE_DIR", None)  # the default: .repro_cache in cwd
        return subprocess.run(
            [sys.executable, *args], cwd=cwd, env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_example_help_exits_without_running(self, tmp_path):
        import time

        started = time.perf_counter()
        done = self.run([str(ROOT / "examples" / "quickstart.py"), "--help"], tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage:")
        assert "===" not in done.stdout  # no demo stage ran
        assert time.perf_counter() - started < 30
        assert list(tmp_path.iterdir()) == []

    def test_example_demo_writes_no_cache(self, tmp_path):
        done = self.run([str(ROOT / "examples" / "quickstart.py")], tmp_path)
        assert done.returncode == 0, done.stderr
        assert "DL attack" in done.stdout
        assert list(tmp_path.iterdir()) == []

    def test_cli_quickstart_writes_no_cache(self, tmp_path):
        done = self.run(["-m", "repro", "quickstart"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert "DL CCR" in done.stdout
        assert list(tmp_path.iterdir()) == []
