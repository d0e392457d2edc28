import hashlib

import pytest

from steerlab import report, steering
from steerlab.coherent import Parity

# SHA-256 of build_report(), recorded before section 2 was swept per beta.
REPORT_SHA256 = "050f008d247b6dc9c0535fd5560763378459e82e6a1f54dd28f92dd7635c2c5f"


def test_report_bytes_pinned():
    assert hashlib.sha256(report.build_report().encode()).hexdigest() == REPORT_SHA256


@pytest.mark.parametrize("alpha", [1.0, -0.7, 2.3])
@pytest.mark.parametrize("beta", report._BOUNDARY_BETAS)
def test_section_two_sums_match_per_cell_steering_sum(alpha, beta):
    sums = report._averaged_mixture_sums(alpha, beta)
    steps = report._SWEEP_P_STEPS
    assert len(sums) == steps + 1
    expected = []
    for k in range(steps + 1):
        p = k / steps
        channel = steering.LhsMixtureChannel(
            states=(alpha + beta, alpha - beta), weights=(p, 1.0 - p)
        )
        scenario = steering.SteeringScenario(
            ensemble=steering.PreparationEnsemble(alpha=alpha, beta=beta, p_plus=p),
            gamma1=-(alpha + beta),
            gamma2=-(alpha - beta),
            outcome=Parity.EVEN,
        )
        expected.append(steering.steering_sum(scenario, channel).sum.hex())
    assert [total.hex() for total in sums] == expected


def test_each_branch_evaluated_once(monkeypatch):
    calls = {"steering_sum": 0, "branch_probabilities": 0}
    for name in calls:
        original = getattr(steering, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(steering, name, counted)
    report.build_report()
    # Section 3: three steering_sum calls, each taking one pair of branch
    # probabilities; section 2: two pure states for each of its five betas.
    assert calls["steering_sum"] == 3
    assert calls["branch_probabilities"] == 3 + 2 * len(report._BOUNDARY_BETAS)
