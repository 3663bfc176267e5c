"""The source paper's conclusions as checked statements, at its Section-4
horizon n = 50 with a burn-in of 6 per arm and alpha = 0.05.

Each test asserts one comparison the paper draws, not the measured value
itself, so a change that keeps every oracle green but flips a conclusion
fails here.  "Max null" is the largest rejection rate on
``null_diagonal(99)``; power and patient benefit are read at
``theta = (0.5, 0.9)``.  Measured with the engine as it is:

==========  ===========================  =========================  =======
design      max null (asy, unc, cond,    power (asy, unc, cond,     benefit
            Boschloo)                    Boschloo)
==========  ===========================  =========================  =======
equal       .0651 .0463 .0328 .0463      .925 .896 .833 .895        .500
DBCD        .1400 .0478 .0453 .0497      .932 .795 .879 .888        .383
BRAR        .1133 .0498 .0484 .0499      .863 .620 .859 .866        .721
==========  ===========================  =========================  =======

The two claims about CMDP designs need a feasible Section-4 solve, which
the dual solver does not reach in 50 iterations (``cmdp solve`` exits 3),
so they are strict xfails.
"""

import numpy as np
import pytest

from rarexact import (
    AsymptoticRule,
    BayesianRar,
    CmdpSpec,
    DbcdNeyman,
    EqualAllocation,
    boschloo_rule,
    conditional_rule,
    default_rectangles,
    forward_g,
    lagrangian_backward,
    null_diagonal,
    profile,
    randomization_rejection_rate,
    solve_cmdp,
    unconditional_rule,
)
from rarexact.cmdp import _AuditContext

N, BURN_IN, ALPHA = 50, 6, 0.05
POINT = (0.5, 0.9)
EXACT = {"unconditional": unconditional_rule, "conditional": conditional_rule,
         "boschloo": boschloo_rule}
DESIGNS = {"equal": EqualAllocation, "dbcd": DbcdNeyman, "brar": BayesianRar}
SECTION4 = CmdpSpec(N, BURN_IN, rectangles=default_rectangles(), max_iters=50)


@pytest.fixture(scope="module")
def ocs():
    """``(max null, power)`` by ``(design, test)``, and the benefit at
    ``POINT`` by ``(design, "benefit")``."""
    grid = null_diagonal(99) + [POINT]
    out = {}
    for name, policy in DESIGNS.items():
        table = forward_g(policy(N, BURN_IN))
        rules = {"asymptotic": AsymptoticRule(ALPHA)}
        rules.update((test, make(table, ALPHA)) for test, make in EXACT.items())
        for test, rule in rules.items():
            prof = profile(table, rule, grid)
            out[name, test] = (float(prof.rejection_rates[:-1].max()), float(prof.rejection_rates[-1]))
        out[name, "benefit"] = float(prof.patient_benefits[-1])
    return out


@pytest.mark.parametrize("design", ["dbcd", "brar"])
def test_asymptotic_test_inflates_type_i_error_under_rar_and_exact_tests_do_not(ocs, design):
    asymptotic = ocs[design, "asymptotic"][0]
    assert asymptotic > ALPHA, (
        f"{design}: asymptotic max null {asymptotic:.4f} does not exceed {ALPHA} "
        f"(margin {asymptotic - ALPHA:.4f})")
    for test in EXACT:
        size = ocs[design, test][0]
        assert size <= ALPHA, (
            f"{design}: {test} max null {size:.4f} exceeds {ALPHA} by {size - ALPHA:.2e}")


def test_dbcd_gives_most_participants_the_inferior_arm(ocs):
    benefit = ocs["dbcd", "benefit"]
    assert benefit < 0.5, f"DBCD benefit at {POINT} is {benefit:.4f}, not below 0.5"


@pytest.mark.parametrize("test, dbcd_wins", [
    ("conditional", True),      # .879 against .833
    ("unconditional", False),   # .795 against .896
    ("boschloo", False),        # .888 against .895
])
def test_equal_allocation_against_dbcd_power_depends_on_the_test(ocs, test, dbcd_wins):
    dbcd, equal = ocs["dbcd", test][1], ocs["equal", test][1]
    assert (dbcd > equal) == dbcd_wins, (
        f"{test} power at {POINT}: DBCD {dbcd:.4f}, equal allocation {equal:.4f} "
        f"(DBCD - equal = {dbcd - equal:+.4f}); the paper has DBCD "
        f"{'ahead' if dbcd_wins else 'behind'}")


@pytest.fixture(scope="module")
def section4_cmdp():
    return solve_cmdp(SECTION4)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no feasible Section-4 CMDP design after 50 dual iterations "
                          "(cmdp solve exits 3); needs column generation")
def test_cmdp_with_the_unconditional_test_has_the_best_power_and_benefit(ocs, section4_cmdp):
    assert section4_cmdp.feasible, (
        f"Section-4 solve infeasible: max violation {section4_cmdp.audit.max_violation(SECTION4):.2e}")
    table = forward_g(section4_cmdp.table)
    prof = profile(table, unconditional_rule(table, ALPHA), [POINT])
    best = max(ocs[design, test][1] for design in DESIGNS for test in EXACT)
    assert prof.rejection_rates[0] > best, (
        f"CMDP unconditional power {prof.rejection_rates[0]:.4f}, best other exact {best:.4f}")
    assert prof.patient_benefits[0] > 0.5, f"CMDP benefit {prof.patient_benefits[0]:.4f}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="needs a feasible Section-4 CMDP design (cmdp solve exits 3) and "
                          "randomization-test rates with conditional half-widths")
def test_cmdp_design_loses_power_under_the_randomization_test(section4_cmdp):
    assert section4_cmdp.feasible, (
        f"Section-4 solve infeasible: max violation {section4_cmdp.audit.max_violation(SECTION4):.2e}")
    table = forward_g(section4_cmdp.table)
    exact = profile(table, unconditional_rule(table, ALPHA), [POINT]).rejection_rates[0]
    rate = randomization_rejection_rate(section4_cmdp.table, POINT, 1000, ALPHA, seed=1)
    assert rate.estimate + rate.half_width < exact, (
        f"randomization power {rate.estimate:.4f} +- {rate.half_width:.4f}, "
        f"unconditional exact {exact:.4f}")


def test_randomization_power_of_the_unconstrained_cmdp_design_falls_with_its_action_bound():
    # the paper's open question: after the burn-in a CMDP design's only
    # randomness is its action bound p, and the randomization test's
    # reference set is that randomness.  The lambda = 0 Lagrangian
    # maximizer (no constraint enforced) at p = 0.6 keeps a coin on every
    # allocation; at p = 1 it is deterministic except at exact ties.
    rates = {}
    for p in (0.6, 1.0):
        spec = CmdpSpec(N, BURN_IN, p=p)
        reward = _AuditContext(spec).reward(np.zeros(len(spec.constraints())))
        table, _ = lagrangian_backward(reward, spec)
        rates[p] = randomization_rejection_rate(table, POINT, 500, ALPHA, seed=1)
    coin, bound = rates[0.6], rates[1.0]
    margin = 4 * (coin.half_width + bound.half_width)
    assert coin.estimate - bound.estimate > margin, (
        f"randomization power {coin.estimate:.3f} +- {coin.half_width:.3f} at p = 0.6, "
        f"{bound.estimate:.3f} +- {bound.half_width:.3f} at p = 1; need a gap over {margin:.3f}")
