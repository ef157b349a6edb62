import math

import numpy as np
import pytest

from rankmil.losses import (
    LossConfig,
    LossVariant,
    bag_bce_loss,
    bag_mse_loss,
    pairwise_ranking_loss,
    quadruplet_loss,
    triplet_embedding_loss,
    triplet_ranking_loss,
)
from rankmil.numerics import Rng

from oracles import central_diff

TRIPLET = LossVariant.TRIPLET_RANKING
PAIRWISE = LossVariant.PAIRWISE_RANKING
EMBED = LossVariant.TRIPLET_EMBEDDING
QUAD = LossVariant.QUADRUPLET


def test_config_validation():
    cfg = LossConfig(TRIPLET)
    assert cfg.alpha1 == 0.3 and cfg.alpha2 == 0.01
    with pytest.raises(ValueError, match="alpha1"):
        LossConfig(TRIPLET, alpha1=-0.1)
    with pytest.raises(ValueError, match="alpha2"):
        LossConfig(TRIPLET, alpha2=math.inf)


def test_variant_guard():
    with pytest.raises(ValueError, match="selects"):
        triplet_ranking_loss(0.5, 0.1, 0.2, LossConfig(PAIRWISE))
    with pytest.raises(ValueError, match="selects"):
        pairwise_ranking_loss(0.5, 0.1, LossConfig(TRIPLET))


def test_triplet_examples():
    # All three hinges inactive.
    out = triplet_ranking_loss(0.9, 0.2, 0.3, LossConfig(TRIPLET, 0.5, 0.1))
    assert out.value == 0.0
    assert out.grads == (0.0, 0.0, 0.0)
    # Two margin terms active at 0.5 each, clustering term zero.
    out = triplet_ranking_loss(0.5, 0.5, 0.5, LossConfig(TRIPLET, 0.5, 0.1))
    assert out.value == 1.0
    assert out.grads == (-2.0, 1.0, 1.0)
    # 1.5 + 0.5 + 0.75
    out = triplet_ranking_loss(0.0, 1.0, 0.0, LossConfig(TRIPLET, 0.5, 0.25))
    assert out.value == 2.75
    # The clustering term sits exactly at its hinge: (0.5 - 0.25)^2 - 0.0625
    # is 0.0, so it adds nothing and passes no gradient.
    out = triplet_ranking_loss(1.0, 0.5, 0.25, LossConfig(TRIPLET, 0.25, 0.0625))
    assert out.value == 0.0
    assert out.grads == (0.0, 0.0, 0.0)


def test_pairwise_examples():
    out = pairwise_ranking_loss(0.8, 0.1, LossConfig(PAIRWISE, alpha1=1.0))
    assert out.value == 1.0 - (0.8 - 0.1)
    assert abs(out.value - 0.3) < 1e-15
    assert out.grads == (-1.0, 1.0)
    # Margin exactly met: hinge argument is 0, subgradient convention
    # puts the gradient at 0 as well.
    out = pairwise_ranking_loss(1.0, 0.0, LossConfig(PAIRWISE, alpha1=1.0))
    assert out.value == 0.0
    assert out.grads == (0.0, 0.0)
    out = pairwise_ranking_loss(0.0, 0.0, LossConfig(PAIRWISE, alpha1=0.5))
    assert out.value == 0.5


def test_embedding_examples():
    out = triplet_embedding_loss([0.0], [0.1], [1.0], LossConfig(EMBED, alpha1=0.2))
    assert out.value == 0.0
    v = np.array([1.0, 2.0])
    out = triplet_embedding_loss(v, v, v, LossConfig(EMBED, alpha1=0.3))
    assert out.value == 0.3
    out = triplet_embedding_loss([0.0, 0.0], [1.0, 0.0], [0.0, 1.0], LossConfig(EMBED, alpha1=0.0))
    assert out.value == 0.0


def test_embedding_shape_error():
    with pytest.raises(ValueError, match="equal shapes"):
        triplet_embedding_loss([0.0], [0.0, 1.0], [0.0], LossConfig(EMBED))


def test_quadruplet_examples():
    out = quadruplet_loss(0.1, 1.0, 1.0, LossConfig(QUAD, 0.5, 0.5))
    assert out.value == 0.0
    out = quadruplet_loss(0.0, 0.0, 0.0, LossConfig(QUAD, 0.2, 0.1))
    assert out.value == 0.2 + 0.1
    assert abs(out.value - 0.3) < 1e-15
    out = quadruplet_loss(1.0, 0.0, 0.0, LossConfig(QUAD, 0.0, 0.0))
    assert out.value == 2.0


def test_quadruplet_rejects_negative_distance():
    with pytest.raises(ValueError, match="d_ik"):
        quadruplet_loss(0.1, -0.5, 1.0, LossConfig(QUAD))


def test_bce_examples():
    assert bag_bce_loss(0.5, 1).value == math.log(2.0)
    assert bag_bce_loss(0.5, 0).value == math.log(2.0)
    out = bag_bce_loss(1e-9, 1)
    assert out.value == -math.log(1e-7)
    assert abs(out.value - 16.118) < 1e-3
    with pytest.raises(ValueError, match="label"):
        bag_bce_loss(0.5, 2)


def test_bce_gradient_sign_and_clamp():
    assert bag_bce_loss(0.9, 1).grads[0] < 0
    assert bag_bce_loss(0.1, 0).grads[0] > 0
    # Clamping keeps the boundary gradient finite.
    assert math.isfinite(bag_bce_loss(0.0, 1).grads[0])
    assert math.isfinite(bag_bce_loss(1.0, 0).grads[0])


def test_mse_examples():
    assert bag_mse_loss(1.0, 1).value == 0.0
    assert bag_mse_loss(0.0, 1).value == 1.0
    assert bag_mse_loss(0.25, 0).value == 0.0625
    assert bag_mse_loss(0.25, 0).grads[0] == 0.5
    with pytest.raises(ValueError, match="label"):
        bag_mse_loss(0.5, -1)


def test_nonfinite_inputs_raise():
    with pytest.raises(FloatingPointError, match="x_pos"):
        triplet_ranking_loss(math.nan, 0.0, 0.0, LossConfig(TRIPLET))
    with pytest.raises(FloatingPointError, match="x_neg"):
        pairwise_ranking_loss(0.0, math.inf, LossConfig(PAIRWISE))
    with pytest.raises(FloatingPointError, match="d_ij"):
        quadruplet_loss(math.nan, 0.0, 0.0, LossConfig(QUAD))


def test_triplet_zero_iff_constraints_met():
    """Zero loss exactly when both gaps reach alpha1 and the squared
    negative gap is within alpha2."""
    cfg = LossConfig(TRIPLET, 0.3, 0.01)
    rng = Rng(17)
    zeros = actives = 0
    for i in range(2000):
        if i % 2:
            x_p, x_n1, x_n2 = (rng.uniform() for _ in range(3))
        else:
            # Steer half the draws into (or near) the satisfied region.
            x_n1 = 0.3 * rng.uniform()
            x_n2 = x_n1 + 0.15 * (rng.uniform() - 0.5)
            x_p = x_n1 + 0.25 + 0.15 * rng.uniform()
        value = triplet_ranking_loss(x_p, x_n1, x_n2, cfg).value
        satisfied = (
            x_p - x_n1 >= cfg.alpha1
            and x_p - x_n2 >= cfg.alpha1
            and (x_n1 - x_n2) ** 2 <= cfg.alpha2
        )
        assert (value == 0.0) == satisfied
        zeros += satisfied
        actives += not satisfied
    assert zeros > 50 and actives > 50  # both branches exercised


def test_triplet_symmetry_in_negatives():
    rng = Rng(5)
    cfg = LossConfig(TRIPLET)
    for _ in range(500):
        x_p, a, b = (4.0 * rng.uniform() - 2.0 for _ in range(3))
        assert (
            triplet_ranking_loss(x_p, a, b, cfg).value
            == triplet_ranking_loss(x_p, b, a, cfg).value
        )


def test_triplet_translation_invariance():
    """Shift invariance is exact once the score differences are exact,
    which a 2^-20 grid guarantees."""
    rng = Rng(6)
    cfg = LossConfig(TRIPLET)
    grid = 2.0**-20
    for _ in range(500):
        x_p, a, b = (float(rng.bounded_int(2**24)) * grid - 8.0 for _ in range(3))
        c = float(rng.bounded_int(2**23)) * grid - 4.0
        assert (
            triplet_ranking_loss(x_p + c, a + c, b + c, cfg).value
            == triplet_ranking_loss(x_p, a, b, cfg).value
        )


def test_triplet_monotone_in_positive_score_and_margin():
    rng = Rng(8)
    for _ in range(300):
        x_p, a, b = (rng.uniform() for _ in range(3))
        delta = rng.uniform()
        cfg = LossConfig(TRIPLET, 0.3, 0.01)
        base = triplet_ranking_loss(x_p, a, b, cfg).value
        # Raising the positive score never increases the loss.
        assert triplet_ranking_loss(x_p + delta, a, b, cfg).value <= base
        # Raising alpha1 never decreases it; raising alpha2 never increases it.
        wider = LossConfig(TRIPLET, 0.3 + delta, 0.01)
        assert triplet_ranking_loss(x_p, a, b, wider).value >= base
        looser = LossConfig(TRIPLET, 0.3, 0.01 + delta)
        assert triplet_ranking_loss(x_p, a, b, looser).value <= base


def test_hinge_values_nonnegative():
    rng = Rng(9)
    for _ in range(500):
        s = [6.0 * rng.uniform() - 3.0 for _ in range(3)]
        d = [3.0 * rng.uniform() for _ in range(3)]
        assert triplet_ranking_loss(s[0], s[1], s[2], LossConfig(TRIPLET)).value >= 0.0
        assert pairwise_ranking_loss(s[0], s[1], LossConfig(PAIRWISE)).value >= 0.0
        assert quadruplet_loss(d[0], d[1], d[2], LossConfig(QUAD)).value >= 0.0
        vecs = rng.gauss_block(9).reshape(3, 3)
        assert triplet_embedding_loss(*vecs, LossConfig(EMBED)).value >= 0.0


def _gradcheck_scalar(loss_fn, point, cfg, kink_args):
    """Loss gradients vs the independent central-difference oracle at a
    point whose hinge arguments all sit away from their kinks."""
    if any(abs(arg) <= 1e-3 for arg in kink_args):
        return False
    analytic = loss_fn(*point, cfg).grads
    numeric = central_diff(lambda x: loss_fn(*x, cfg).value, list(point))
    for g_a, g_n in zip(analytic, numeric):
        assert abs(g_a - g_n) <= 1e-6 * max(1.0, abs(g_a))
    return True


def test_triplet_gradients_match_finite_differences():
    rng = Rng(100)
    cfg = LossConfig(TRIPLET, 0.3, 0.01)
    checked = 0
    while checked < 100:
        x_p, a, b = (rng.uniform() for _ in range(3))
        kinks = (
            cfg.alpha1 - (x_p - a),
            cfg.alpha1 - (x_p - b),
            (a - b) ** 2 - cfg.alpha2,
        )
        checked += _gradcheck_scalar(triplet_ranking_loss, (x_p, a, b), cfg, kinks)


def test_pairwise_gradients_match_finite_differences():
    rng = Rng(101)
    cfg = LossConfig(PAIRWISE, alpha1=0.3)
    checked = 0
    while checked < 100:
        x_p, x_n = rng.uniform(), rng.uniform()
        checked += _gradcheck_scalar(
            pairwise_ranking_loss, (x_p, x_n), cfg, (cfg.alpha1 - (x_p - x_n),)
        )


def test_quadruplet_gradients_match_finite_differences():
    rng = Rng(102)
    cfg = LossConfig(QUAD, 0.2, 0.1)
    checked = 0
    while checked < 100:
        d = [0.1 + 1.5 * rng.uniform() for _ in range(3)]
        kinks = (
            d[0] ** 2 - d[1] ** 2 + cfg.alpha1,
            d[0] ** 2 - d[2] ** 2 + cfg.alpha2,
        )
        checked += _gradcheck_scalar(quadruplet_loss, tuple(d), cfg, kinks)


def test_embedding_gradients_match_finite_differences():
    rng = Rng(103)
    cfg = LossConfig(EMBED, alpha1=0.4)
    checked = 0
    while checked < 100:
        vecs = rng.gauss_block(9).reshape(3, 3)
        ap = vecs[0] - vecs[1]
        an = vecs[0] - vecs[2]
        kink = float(ap @ ap - an @ an) + cfg.alpha1
        if abs(kink) <= 1e-3:
            continue

        def value(flat):
            x = np.asarray(flat).reshape(3, 3)
            return triplet_embedding_loss(x[0], x[1], x[2], cfg).value

        analytic = np.concatenate(triplet_embedding_loss(*vecs, cfg).grads)
        numeric = np.asarray(central_diff(value, list(vecs.ravel())))
        assert np.linalg.norm(analytic - numeric) <= 1e-6 * max(
            1.0, float(np.linalg.norm(analytic))
        )
        checked += 1
