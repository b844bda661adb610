import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCorrelationDecay:
    def test_sigma_comes_from_the_exact_value(self):
        decay = load_script("correlation_decay")
        # a collapsed orbit: estimate 0 with zero stderr, exact 1/4
        assert decay.sigmas_off(0.0, 0.25, 1000) > 18
        # an exact 0 or 1 is floored at one hit in m
        assert decay.sigmas_off(0.0, 0.0, 1000) == 0.0
        assert decay.sigmas_off(0.002, 0.0, 1000) == pytest.approx(2.0)

    def test_zero_stderr_estimate_far_from_exact_exits_1(self, monkeypatch, capsys):
        decay = load_script("correlation_decay")
        monkeypatch.setattr(decay, "mc_correlation", lambda *args: (0.0, 0.0))
        assert decay.main(["--system", "tent", "--N", "4", "--mc-samples", "1000"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_agreeing_estimates_exit_0(self, capsys):
        decay = load_script("correlation_decay")
        assert decay.main(["--system", "tent", "--N", "4", "--mc-samples", "20000"]) == 0
        assert "FAIL" not in capsys.readouterr().out
