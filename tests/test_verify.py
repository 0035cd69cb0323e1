"""Verification-suite plumbing: every suite passes, reports render, and the
expansion check actually measures truncation (worse at lower q_max)."""

import math

import pytest

from lgryd.beam import BeamSpec
from lgryd import verify


class TestSuites:
    @pytest.mark.parametrize("suite", verify.ALL_SUITES,
                             ids=lambda s: s.__name__)
    def test_each_passes(self, suite):
        rep = suite()
        assert rep.passed, rep.render()

    def test_run_all_text(self):
        ok, text = verify.run_all()
        assert ok
        assert text.count("[PASS]") == 6
        assert "6/6 suites passed" in text

    def test_report_render_shapes(self):
        rep = verify.SuiteReport("demo", False, ["a", "b"])
        assert rep.render() == "[FAIL] demo\n    a\n    b\n"


class TestTruncationSensitivity:
    def test_q0_residual_exceeds_q8(self):
        # same probe, rho = 0.3 w0: the q_max=0 truncation must be visibly
        # worse or the residual is not measuring the expansion at all
        w0 = 51022.6
        rho, z = 0.3 * w0, 0.02 * w0
        r, theta = math.hypot(rho, z), math.atan2(rho, z)
        res = {}
        for q_max in (0, 8):
            beam = BeamSpec(l=1, w0=w0, E0=1.0, sigma=1, q_max=q_max)
            res[q_max] = verify.verify_expansion(beam, r, theta, 0.4).residual
        assert res[0] > 100 * res[8]
        assert res[8] < 1e-6

    def test_wider_probe_disc_still_converged(self):
        rep = verify.suite_expansion_identity(n_probes=20, rho_frac=0.5)
        assert rep.passed
        assert "0.5 w0" in rep.lines[0]
