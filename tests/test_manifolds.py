import numpy as np
import pytest

from rsgd import DegenerateRetraction, Euclidean, Sphere

from reference import is_tangent, random_tangent, retract_differential


@pytest.fixture
def sphere():
    return Sphere(3)


@pytest.fixture
def plane():
    return Euclidean(2)


class TestRetract:
    def test_euclidean_is_vector_addition(self, plane):
        y = plane.retract(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        np.testing.assert_array_equal(y, [1.5, 1.0])

    def test_sphere_zero_vector_is_identity(self, sphere):
        x = np.array([1.0, 0.0, 0.0])
        y = sphere.retract(x, np.zeros(3))
        np.testing.assert_array_equal(y, x)

    def test_sphere_projective_formula(self, sphere):
        y = sphere.retract(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(y, [r, r, 0.0], atol=1e-15)

    def test_zero_retraction_exact_on_random_points(self, sphere):
        rng = np.random.default_rng(1)
        x = sphere.random_point(rng, 1000)
        np.testing.assert_array_equal(sphere.retract(x, np.zeros_like(x)), x)

    def test_first_order_agreement(self, sphere):
        # dR_x(0) = id: (R_x(h w) - x) / h ~ w for unit tangent w
        rng = np.random.default_rng(2)
        x = sphere.random_point(rng, 1000)
        w = random_tangent(sphere, rng, x)
        w = w / sphere.norm(x, w)[:, None]
        h = 1e-6
        drift = (sphere.retract(x, h * w) - x) / h - w
        assert np.sqrt((drift**2).sum(axis=1)).max() <= 1e-5

    def test_degenerate_step_raises(self, sphere):
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegenerateRetraction):
            sphere.retract(x, -x)

    def test_outputs_stay_on_sphere(self, sphere):
        rng = np.random.default_rng(3)
        x = sphere.random_point(rng, 500)
        v = 3.0 * random_tangent(sphere, rng, x)
        y = sphere.retract(x, v)
        assert np.all(sphere.contains(y, tol=1e-12))


class TestDifferential:
    def test_euclidean_is_identity(self, plane):
        x = np.array([0.3, -0.7])
        out = retract_differential(plane, x, np.array([1.0, 1.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [3.0, 4.0])

    def test_sphere_at_zero_is_identity(self, sphere):
        x = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(retract_differential(sphere, x, np.zeros(3), w), w, atol=1e-15)

    def test_matches_central_differences(self, sphere):
        # oracle: (R_x(u + h w) - R_x(u - h w)) / (2 h)
        x = np.array([1.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        h = 1e-6
        fd = (sphere.retract(x, u + h * w) - sphere.retract(x, u - h * w)) / (2 * h)
        np.testing.assert_allclose(retract_differential(sphere, x, u, w), fd, atol=1e-6)

    def test_matches_central_differences_random(self, sphere):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(25):
            x = sphere.random_point(rng)
            u = random_tangent(sphere, rng, x)
            w = random_tangent(sphere, rng, x)
            fd = (sphere.retract(x, u + h * w) - sphere.retract(x, u - h * w)) / (2 * h)
            np.testing.assert_allclose(retract_differential(sphere, x, u, w), fd, atol=1e-6)


class TestAdjoint:
    def test_euclidean_is_identity(self, plane):
        z = np.array([1.0, 1.0])
        np.testing.assert_array_equal(plane.retract_adjoint(np.zeros(2), np.ones(2), z), z)

    def test_sphere_at_zero_is_identity(self, sphere):
        x = np.array([1.0, 0.0, 0.0])
        z = np.array([0.0, 0.0, 1.0])
        np.testing.assert_allclose(sphere.retract_adjoint(x, np.zeros(3), z), z, atol=1e-15)

    def test_defining_identity(self, sphere):
        # <v, adj(z)>_x == <dR_x|_u(v), z> for random tangent v, z
        rng = np.random.default_rng(5)
        for _ in range(1000):
            x = sphere.random_point(rng)
            u = random_tangent(sphere, rng, x)
            v = random_tangent(sphere, rng, x)
            y = sphere.retract(x, u)
            z = sphere.project_tangent(y, rng.normal(size=3))
            lhs = sphere.inner(x, v, sphere.retract_adjoint(x, u, z))
            rhs = sphere.inner(y, retract_differential(sphere, x, u, v), z)
            assert abs(lhs - rhs) <= 1e-8

    def test_adjoint_lands_in_tangent_space(self, sphere):
        rng = np.random.default_rng(6)
        x = sphere.random_point(rng, 200)
        u = random_tangent(sphere, rng, x)
        y = sphere.retract(x, u)
        z = sphere.project_tangent(y, rng.normal(size=y.shape))
        assert np.all(is_tangent(sphere, x, sphere.retract_adjoint(x, u, z)))


class TestProjection:
    def test_sphere_subtracts_radial_part(self, sphere):
        out = sphere.project_tangent(np.array([1.0, 0.0, 0.0]), np.array([5.0, 1.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 2.0])

    def test_purely_radial_projects_to_zero(self, sphere):
        out = sphere.project_tangent(np.array([0.0, 1.0, 0.0]), np.array([0.0, 3.0, 0.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])

    def test_euclidean_is_identity(self, plane):
        np.testing.assert_array_equal(
            plane.project_tangent(np.zeros(2), np.array([1.0, 2.0])), [1.0, 2.0]
        )

    def test_projection_is_tangent(self, sphere):
        rng = np.random.default_rng(7)
        x = sphere.random_point(rng, 300)
        v = sphere.project_tangent(x, rng.normal(size=x.shape))
        assert np.all(is_tangent(sphere, x, v))


class TestInner:
    def test_orthogonal(self, plane):
        assert plane.inner(np.zeros(2), np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_self_inner_is_square_norm(self, plane):
        v = np.array([3.0, 4.0])
        assert plane.inner(np.zeros(2), v, v) == 25.0
        assert plane.norm(np.zeros(2), v) == 5.0

    def test_nonnegative(self, sphere):
        rng = np.random.default_rng(8)
        x = sphere.random_point(rng, 100)
        u = random_tangent(sphere, rng, x)
        assert np.all(sphere.inner(x, u, u) >= 0.0)


def test_dimensions():
    assert Sphere(4).intrinsic_dim == 3
    assert Euclidean(4).intrinsic_dim == 4
    with pytest.raises(ValueError):
        Sphere(1)
    with pytest.raises(ValueError):
        Euclidean(0)
