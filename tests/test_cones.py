from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

from coneorder.cones import (
    _dual,
    cone_from_facets,
    cone_from_generators,
    double_description,
    interval_cone,
    orthant,
    square_cone,
)
from coneorder.errors import DimensionMismatch, NotConeMap, NotInCone, NotPointed
from coneorder.iso import LinearIso
from coneorder.linalg import (
    as_vec,
    mat_rank,
    mat_vec,
    normalize_ray,
    unit_vec,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
    zero_vec,
)
from coneorder.sampling import cone_point, random_pointed_cone, rng_for

from oracles import (
    cone_bruteforce,
    double_description_reference,
    facets_from_rays_bruteforce,
    is_extreme_among,
    is_extreme_lp,
    is_extreme_tight_rank,
    minimal_generators,
    rays_from_facets_bruteforce,
)


def V(*xs):
    return as_vec(xs)


class TestConeFromGenerators:
    def test_redundant_generator_dropped(self):
        c = cone_from_generators(2, [(1, 0), (0, 1), (1, 1)])
        assert c.generators == (V(0, 1), V(1, 0))
        assert c.facets == (V(0, 1), V(1, 0))

    def test_square_cone_against_lp_oracle(self):
        gens = [V(1, 1, 1), V(-1, 1, 1), V(1, -1, 1), V(-1, -1, 1)]
        assert minimal_generators(gens) == sorted(gens)
        c = cone_from_generators(3, gens)
        assert set(c.generators) == set(gens)
        # facet set pinned by the dual brute-force oracle
        assert list(c.facets) == facets_from_rays_bruteforce(3, gens)
        assert set(c.facets) == {V(1, 0, 1), V(-1, 0, 1), V(0, 1, 1), V(0, -1, 1)}

    def test_interval_cone_against_oracle(self):
        gens = [V(1, 1), V(-1, 1)]
        assert minimal_generators(gens) == sorted(gens)
        c = cone_from_generators(2, gens)
        assert set(c.generators) == set(gens)
        assert set(c.facets) == {V(1, 1), V(-1, 1)}

    def test_all_zero_generators_give_trivial_cone(self):
        c = cone_from_generators(2, [(0, 0), (0, 0)])
        assert c.generators == ()
        assert c.pointed and not c.generating
        assert c.contains(V(0, 0)) and not c.contains(V(1, 0))
        assert c.extreme_rays() == ()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_trivial_cone_from_either_side(self, dim):
        """The general build path gives {0} from no generators and from +/-e_i."""
        units = [unit_vec(dim, i) for i in range(dim)]
        signed = units + [vec_neg(u) for u in units]
        trivial = cone_from_generators(dim, [])
        assert cone_from_facets(dim, signed) == trivial
        assert trivial.generators == () and trivial.facets == tuple(sorted(signed))
        assert trivial.pointed and not trivial.generating

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cone_from_generators(2, [(1, 0, 0)])

    def test_non_pointed_flagged_not_error(self):
        c = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        assert not c.pointed
        assert c.contains(V(-5, 0)) and c.contains(V(3, 2)) and not c.contains(V(0, -1))
        with pytest.raises(NotPointed):
            c.extreme_rays()

    def test_scaling_invariance_of_canonical_form(self):
        a = cone_from_generators(2, [(2, 0), (0, 3)])
        b = cone_from_generators(2, [(Fraction(1, 5), 0), (0, Fraction(7, 2))])
        assert a == b == orthant(2)


class TestConeFromFacets:
    def test_orthant_self_dual(self):
        c = cone_from_facets(2, [(1, 0), (0, 1)])
        assert c.generators == (V(0, 1), V(1, 0))

    def test_square_from_facets_against_vertex_oracle(self):
        facets = [V(1, 0, 1), V(-1, 0, 1), V(0, 1, 1), V(0, -1, 1)]
        expected = rays_from_facets_bruteforce(3, facets)
        c = cone_from_facets(3, facets)
        assert list(c.generators) == expected
        assert set(c.generators) == {V(1, 1, 1), V(-1, 1, 1), V(1, -1, 1), V(-1, -1, 1)}

    def test_empty_facets_whole_space(self):
        c = cone_from_facets(2, [])
        assert not c.pointed
        assert c.facets == ()
        assert c.contains(V(-7, 13))

    def test_redundant_facet_removed(self):
        c = cone_from_facets(2, [(1, 0), (0, 1), (1, 1)])
        assert c.facets == (V(0, 1), V(1, 0))

    def test_lower_dimensional_cone(self):
        # single ray in R^3 via equality pairs
        c = cone_from_generators(3, [(1, 0, 0)])
        assert c.generators == (V(1, 0, 0),)
        assert not c.generating and c.pointed
        assert c.contains(V(2, 0, 0)) and not c.contains(V(1, 1, 0))
        assert c.is_extreme_vector(V(3, 0, 0))
        rt = cone_from_facets(3, c.facets)
        assert rt.generators == c.generators


class TestMembershipAndOrder:
    def test_contains_examples(self):
        assert orthant(2).contains(V(1, 1))
        sq = square_cone()
        assert sq.contains(V(1, 1, 1))
        assert not sq.contains(V(2, 0, 1))
        assert orthant(2).contains(V(0, 0))

    def test_leq_examples(self):
        o2 = orthant(2)
        assert o2.leq(V(0, 0), V(1, 1))
        assert square_cone().leq(V(1, 1, 1), V(0, 0, 2))
        assert not o2.leq(V(1, 0), V(0, 1))

    def test_order_axioms_on_random_triples(self):
        rng = rng_for(7, "axioms")
        for trial in range(30):
            cone = random_pointed_cone(rng, rng.randint(2, 4), rng.randint(2, 5))
            x, y, z = (cone_point(cone, rng) for _ in range(3))
            assert cone.leq(x, x)
            if cone.leq(x, y) and cone.leq(y, z):
                assert cone.leq(x, z)
            if cone.leq(x, y) and cone.leq(y, x):
                assert x == y

    def test_archimedean_surrogate(self):
        # Integer data keeps the finite check sound: facet values are integers,
        # so <h, x> > 0 means >= 1 and the premise dies before n = 1000.
        rng = rng_for(11, "arch")
        checked = 0
        for trial in range(200):
            cone = random_pointed_cone(rng, rng.randint(2, 3), rng.randint(2, 4))
            x = as_vec([rng.randint(-3, 3) for _ in range(cone.dim)])
            y = cone_point(cone, rng)
            if all(cone.leq(vec_scale(n, x), y) for n in range(1, 1001)):
                checked += 1
                assert cone.leq(x, V(*([0] * cone.dim)))
        assert checked > 0


class TestExtremeVectors:
    def test_examples(self):
        o3 = orthant(3)
        assert o3.is_extreme_vector(V(1, 0, 0))
        assert not o3.is_extreme_vector(V(1, 1, 0))
        assert square_cone().is_extreme_vector(V(1, 1, 1))

    def test_not_in_cone_and_zero(self):
        with pytest.raises(NotInCone):
            orthant(2).is_extreme_vector(V(-1, 0))
        with pytest.raises(NotInCone):
            orthant(2).is_extreme_vector(V(0, 0))

    def test_rank_test_agrees_with_lp_oracle_on_random_cones(self):
        # The generator lookup against the tight-facet rank test and the LP
        # oracle, on generating and non-generating pointed cones, for the
        # generators, rational multiples and negations of them, and sums of
        # two of them.
        rng = rng_for(3, "extreme")
        checked = 0
        for trial in range(50):
            dim = rng.randint(2, 4)
            if trial % 2:
                cone = random_pointed_cone(rng, dim, rng.randint(3, 6))
            else:
                cone = _random_cone_in_subspace(rng, dim, rng.randint(1, dim - 1))
                if not cone.pointed:
                    continue
            gens = cone.generators
            cands = []
            for i, g in enumerate(gens):
                assert is_extreme_among(gens, i)
                lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                cands += [g, vec_scale(lam, g), vec_neg(g)]
            cands += [vec_add(g, h) for g, h in combinations(gens, 2)]
            for v in cands:
                if not cone.contains(v):
                    with pytest.raises(NotInCone):
                        cone.is_extreme_vector(v)
                    with pytest.raises(NotInCone):
                        is_extreme_tight_rank(cone, v)
                    continue
                want = is_extreme_lp(gens, v)
                assert is_extreme_tight_rank(cone, v) == want
                assert cone.is_extreme_vector(v) == want
                checked += 1
        assert checked > 100

    def test_scaled_generator_is_still_extreme(self):
        sq = square_cone()
        assert sq.is_extreme_vector(vec_scale(Fraction(7, 3), V(1, 1, 1)))

    def test_lemma_2_1_three_distinct_rays_are_independent(self):
        rng = rng_for(5, "lemma21")
        for trial in range(20):
            cone = random_pointed_cone(rng, rng.randint(3, 5), rng.randint(3, 7))
            gens = cone.generators
            if len(gens) < 3:
                continue
            idx = rng.sample(range(len(gens)), 3)
            assert mat_rank([gens[i] for i in idx]) == 3

    def test_lemma_2_2_multiples_on_extreme_ray(self):
        rng = rng_for(9, "lemma22")
        sq = square_cone()
        r = V(1, 1, 1)
        for trial in range(20):
            m1 = Fraction(rng.randrange(0, 100), 100)
            m2 = m1 + Fraction(rng.randrange(1, 50), 100)
            assert sq.leq(vec_scale(m1, r), vec_scale(m2, r))
        # anything between 0 and r comparable to all multiples is itself a multiple
        for lam_num in range(0, 11):
            y = vec_scale(Fraction(lam_num, 10), r)
            assert mat_rank([y, r]) <= 1


class TestCaratheodory:
    def test_examples(self):
        o2 = orthant(2)
        decomp = o2.caratheodory_decompose(V(2, 3))
        assert sorted(decomp, key=lambda t: t[1]) == [
            (Fraction(3), V(0, 1)),
            (Fraction(2), V(1, 0)),
        ]
        assert o2.caratheodory_decompose(V(0, 0)) == []
        # opposite corners of the square cone sum to twice the apex direction
        sq = square_cone()
        assert vec_add(V(1, 1, 1), V(-1, -1, 1)) == V(0, 0, 2)
        pieces = sq.caratheodory_decompose(V(0, 0, 2))
        total = V(0, 0, 0)
        for c, g in pieces:
            total = vec_add(total, vec_scale(c, g))
        assert total == V(0, 0, 2)
        assert len(pieces) == 2

    def test_resummation_and_term_bound_on_random_cones(self):
        rng = rng_for(13, "cara")
        for trial in range(25):
            cone = random_pointed_cone(rng, rng.randint(2, 4), rng.randint(2, 6))
            x = cone_point(cone, rng)
            pieces = cone.caratheodory_decompose(x)
            assert len(pieces) <= cone.dim
            total = V(*([0] * cone.dim))
            for c, g in pieces:
                assert c > 0
                assert g in cone.generators
                total = vec_add(total, vec_scale(c, g))
            assert total == x

    def test_errors(self):
        with pytest.raises(NotInCone):
            orthant(2).caratheodory_decompose(V(-1, 0))
        half = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
        with pytest.raises(NotPointed):
            half.caratheodory_decompose(V(0, 1))


class TestRoundTrip:
    def test_fixed_cases(self):
        for cone in (orthant(2), orthant(4), square_cone(), interval_cone()):
            again = cone_from_facets(cone.dim, cone.facets)
            assert again == cone

    def test_random_cones(self):
        rng = rng_for(17, "roundtrip")
        for trial in range(40):
            dim = rng.randint(2, 5)
            cone = random_pointed_cone(rng, dim, rng.randint(2, 8))
            again = cone_from_facets(dim, cone.facets)
            assert again.generators == cone.generators
            assert again.facets == cone.facets
            back = cone_from_generators(dim, cone.generators)
            assert back == cone

    def test_double_description_matches_subset_enumeration(self):
        # the incremental engine against exhaustive facet-subset solving
        rng = rng_for(19, "ddoracle")
        for trial in range(30):
            dim = rng.randint(2, 4)
            cone = random_pointed_cone(rng, dim, rng.randint(2, 6),
                                       require_generating=True)
            assert list(cone.generators) == rays_from_facets_bruteforce(dim, cone.facets)
            assert list(cone.facets) == facets_from_rays_bruteforce(dim, cone.generators)

    def test_double_description_against_bruteforce_on_general_systems(self):
        for dim, system in _general_systems():
            lin, rays = double_description(dim, system)
            lin_o, rays_o = cone_bruteforce(dim, system)
            assert all(normalize_ray(r) == r for r in rays)  # primitive integer rays
            # same lineality space: equal dimension, and DD's basis is independent
            # and annihilated by every constraint
            assert len(lin) == len(lin_o) == mat_rank(lin)
            assert all(vec_dot(h, l) == 0 for h in system for l in lin)
            # same rays modulo lineality: a ray is fixed modulo ker(A) by its
            # constraint values A r, and the counts rule out repeats
            def values(r):
                return normalize_ray(tuple(vec_dot(h, r) for h in system))
            assert len(rays) == len(rays_o)
            assert sorted(values(r) for r in rays) == sorted(values(r) for r in rays_o)

    def test_double_description_equals_fraction_lineality_reference(self):
        # The integer lineality basis, divided by its free-coordinate entries
        # on return, must give the Fraction echelon basis exactly, and the
        # rays must not move.
        with_lineality = 0
        systems = list(_dd_reference_systems())
        for dim, system in systems:
            lin, rays = double_description(dim, system)
            assert (lin, rays) == double_description_reference(dim, system)
            assert all(type(c) is Fraction for v in lin + rays for c in v)
            with_lineality += bool(lin)
        assert len(systems) >= 500 and with_lineality >= len(systems) // 4

    def test_pointed_and_generating_against_rank(self):
        # The flags read off the two DD passes against mat_rank: {x : Ax >= 0}
        # is pointed iff rank A = dim, and cone(A) is generating iff rank A = dim.
        for dim, system in _general_systems():
            full = mat_rank(system) == dim
            by_facets = cone_from_facets(dim, system)
            assert by_facets.pointed == full
            assert by_facets.generating == (mat_rank(by_facets.generators) == dim)
            by_gens = cone_from_generators(dim, system)
            assert by_gens.generating == full
            assert by_gens.pointed == (mat_rank(by_gens.facets) == dim)

    def test_dropped_third_pass_on_non_generating_cones(self):
        # cone_from_generators reuses the facets of its first DD pass; they
        # must equal the facets re-derived from the minimal generators
        rng = rng_for(29, "thirdpass")
        for trial in range(30):
            dim = rng.randint(2, 6)
            cone = _random_cone_in_subspace(rng, dim, rng.randint(1, dim - 1))
            assert not cone.generating
            assert cone.facets == _dual(dim, cone.generators)[0]


def _general_systems():
    """(dim, system) pairs for dims 2-6: facet systems of non-generating cones
    (which carry +/- pairs), bare systems with lineality, and duplicated +/-h
    rows."""
    rng = rng_for(23, "ddgeneral")
    for trial in range(60):
        dim = 2 + trial % 5
        kind = trial % 3
        if kind == 0:
            cone = _random_cone_in_subspace(rng, dim, rng.randint(1, dim - 1))
            system = list(cone.facets)
        elif kind == 1:
            system = [V(*(rng.randint(-2, 2) for _ in range(dim)))
                      for _ in range(rng.randint(1, dim))]
        else:
            cone = random_pointed_cone(rng, dim, rng.randint(dim, dim + 2))
            while len(cone.facets) > 10:  # bounds the oracle's subset count
                cone = random_pointed_cone(rng, dim, dim)
            system = list(cone.facets)
            system += [vec_neg(system[0]), vec_scale(2, system[-1]), system[-1]]
            rng.shuffle(system)
        yield dim, system


def _dd_reference_systems():
    """(dim, system) pairs for dims 1-8: integer or rational rows, some drawn
    from a proper subspace (so the cone has lineality), with duplicated,
    negated, positively scaled and zero rows mixed in."""
    rng = rng_for(31, "ddreference")
    for trial in range(560):
        dim = 1 + trial % 8
        if trial % 3 == 2:
            basis = [[rng.randint(-3, 3) for _ in range(dim)]
                     for _ in range(rng.randint(1, max(dim - 1, 1)))]
            rows = []
            for _ in range(rng.randint(1, dim + 2)):
                coeffs = [rng.randint(-2, 2) for _ in basis]
                rows.append(V(*(sum(c * b[j] for c, b in zip(coeffs, basis))
                                for j in range(dim))))
        elif trial % 3 == 1:
            rows = [V(*(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(dim)))
                    for _ in range(rng.randint(1, dim + 2))]
        else:
            rows = [V(*(rng.randint(-3, 3) for _ in range(dim)))
                    for _ in range(rng.randint(1, dim + 3))]
        extra = []
        for r in rows:
            roll = rng.random()
            if roll < 0.1:
                extra.append(r)
            elif roll < 0.2:
                extra.append(vec_neg(r))
            elif roll < 0.3:
                extra.append(vec_scale(Fraction(rng.randint(1, 7), rng.randint(1, 4)), r))
        if rng.random() < 0.05:
            extra.append(zero_vec(dim))
        system = rows + extra
        rng.shuffle(system)
        yield dim, system


def _random_cone_in_subspace(rng, dim, rank):
    """Cone from random integer combinations of rank random vectors, so it is
    not generating; about half of them also get a lineality direction."""
    while True:
        basis = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rank)]
        gens = []
        for _ in range(rng.randint(1, rank + 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(rank)]
            gens.append(V(*(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(dim))))
        if rng.random() < 0.5:
            gens += [gens[0], vec_neg(gens[0])]
        if any(any(c != 0 for c in g) for g in gens):
            return cone_from_generators(dim, gens)


# Differential check of the integer-scaled fast paths (contains, leq,
# tight_facets, LinearIso eval/invert) against plain Fraction arithmetic, on
# rationals with mixed denominators, zeros, signs and entries above 2**64.
exact_coord = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-2**70, 2**70), st.integers(1, 2**66)),
)

DIFF_CONES = [
    square_cone(),
    interval_cone(),
    orthant(3),
    cone_from_generators(3, [(1, 2, 3), (-4, 5, 6), (7, -8, 9), (1, 1, 1)]),
    cone_from_facets(3, [(1, -2, 0)]),
    cone_from_generators(2, []),
]


def _vec(data, dim):
    return tuple(data.draw(st.lists(exact_coord, min_size=dim, max_size=dim)))


def _cone_vec(data, cone):
    """A random vector, or a nonnegative combination of generators, some of
    whose coefficients are zero so that the point sits on facets."""
    if not cone.generators or data.draw(st.booleans()):
        return _vec(data, cone.dim)
    x = zero_vec(cone.dim)
    for g in cone.generators:
        x = vec_add(x, vec_scale(data.draw(st.just(0) | exact_coord.map(abs)), g))
    return x


def _fraction_member(cone, x):
    return all(vec_dot(h, x) >= 0 for h in cone.facets)


@given(st.data())
def test_integer_scaled_order_matches_fraction_arithmetic(data):
    cone = data.draw(st.sampled_from(DIFF_CONES))
    x = _cone_vec(data, cone)
    y = vec_add(x, _cone_vec(data, cone)) if data.draw(st.booleans()) else _vec(data, cone.dim)
    assert cone.contains(x) == _fraction_member(cone, x)
    assert cone.leq(x, y) == _fraction_member(cone, vec_sub(y, x))
    if _fraction_member(cone, x):
        assert cone.tight_facets(x) == [i for i, h in enumerate(cone.facets)
                                        if vec_dot(h, x) == 0]
    else:
        with pytest.raises(NotInCone):
            cone.tight_facets(x)


@given(st.data())
def test_integer_scaled_linear_iso_matches_mat_vec(data):
    dim = data.draw(st.integers(1, 4))
    whole = cone_from_facets(dim, [])
    matrix = [_vec(data, dim) for _ in range(dim)]
    try:
        spec = LinearIso(matrix, whole, whole)
    except NotConeMap:
        assume(False)
    x = _vec(data, dim)
    y = spec.eval(x)
    assert y == mat_vec(spec.matrix, x)
    assert spec.invert(y) == mat_vec(spec.inverse, y) == x
