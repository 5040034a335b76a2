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
