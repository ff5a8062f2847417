from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

from coneorder import cones
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
from coneorder.iso import LinearIso, check_order_iso_sampled, make_linear_iso
from coneorder.linalg import (
    as_vec,
    mat_rank,
    mat_vec,
    unit_vec,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
    zero_vec,
)
from coneorder.order import (
    eval_infsup,
    inf_expr,
    infimum,
    leaf,
    order_unit_norm,
    sup_expr,
    supremum,
)
from coneorder.sampling import cone_point, random_pointed_cone, rng_for

from oracles import (
    caratheodory_reference,
    cone_bruteforce,
    cone_from_facets_reference,
    cone_from_generators_reference,
    double_description_reference,
    facets_from_rays_bruteforce,
    is_extreme_among,
    is_extreme_lp,
    is_extreme_tight_rank,
    minimal_generators,
    normalize_ray,
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

    @pytest.mark.parametrize("query, args, answer", [
        ("contains", [("1/2", "-1/3", "1/2")], True),
        ("contains", [("3/2", 0, "1")], False),
        ("leq", [("1/2", "0", "1/2"), ("1/2", "1/2", "3/2")], True),
        ("leq", [("1/2", "1/2", "3/2"), ("1/2", "0", "1/2")], False),
        ("tight_facets", [("1/2", "1/2", "1/2")], [0, 1]),
        ("is_extreme_vector", [("1/2", "1/2", "1/2")], True),
        ("is_extreme_vector", [("0", "0", "1/2")], False),
        ("caratheodory_decompose", [("1/2", "1/3", "1")],
         [(Fraction(1, 4), V(-1, -1, 1)), (Fraction(1, 12), V(1, -1, 1)),
          (Fraction(2, 3), V(1, 1, 1))]),
    ])
    def test_queries_read_rational_strings_and_refuse_floats(self, query, args, answer):
        # Every query reads its vectors through PolyhedralCone._scaled: a
        # string as linalg.frac reads it, a float as a TypeError, and a
        # vector of the wrong length as DimensionMismatch before its entries.
        method = getattr(square_cone(), query)
        assert method(*args) == method(*[as_vec(v) for v in args]) == answer
        floats = [tuple(float(Fraction(c)) for c in v) for v in args]
        with pytest.raises(TypeError, match="exact rational expected"):
            method(*floats)
        with pytest.raises(DimensionMismatch):
            method(*[v + (0.5,) for v in floats])

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

    @given(st.data())
    def test_facet_walk_matches_the_simplex(self, data):
        kind = data.draw(st.sampled_from(["random", "non-generating", "orthant1", "trivial"]))
        if kind == "orthant1":
            cone = orthant(1)
        elif kind == "trivial":
            cone = cone_from_generators(data.draw(st.integers(1, 4)), [])
        else:
            rng = rng_for(data.draw(st.integers(0, 2**32)), "cara-walk")
            dim = data.draw(st.integers(1, 8) if kind == "random" else st.integers(2, 8))
            n = rng.randint(1, dim + 3) if kind == "random" else rng.randint(1, dim - 1)
            cone = random_pointed_cone(rng, dim, n, bound=2)
            assert kind == "random" or not cone.generating
        gens = cone.generators
        rng = rng_for(data.draw(st.integers(0, 2**32)), "cara-points")
        points = [zero_vec(cone.dim), *gens, *(vec_add(g, h) for g, h in combinations(gens, 2))]
        points += [cone_point(cone, rng) for _ in range(3)]
        for x in points:
            pieces = cone.caratheodory_decompose(x)
            reference = caratheodory_reference(cone, x)
            total = zero_vec(cone.dim)
            for c, g in pieces:
                assert c > 0 and g in gens
                total = vec_add(total, vec_scale(c, g))
            assert total == x
            order = [gens.index(g) for _, g in pieces]
            assert order == sorted(set(order))
            assert len(pieces) <= cone.dim
            assert mat_rank([g for _, g in pieces]) == len(pieces)
            if any(x):
                assert (len(pieces) == 1) == cone.is_extreme_vector(x)
            else:
                assert pieces == reference == []
            assert (len(pieces) >= 2) == (len(reference) >= 2)

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
            assert all(type(c) is Fraction for v in lin for c in v)
            assert all(type(c) is int for v in rays for c in v)
            with_lineality += bool(lin)
        assert len(systems) >= 500 and with_lineality >= len(systems) // 4

    def test_double_description_does_not_depend_on_constraint_order(self):
        # order._vertices puts t >= 0 first; that is sound only because the
        # lineality basis and the set of rays, representatives included, are
        # the same for every order of the constraints
        rng = rng_for(37, "ddorder")
        for dim, system in _dd_reference_systems():
            lin, rays = double_description(dim, system)
            shuffled = list(system)
            rng.shuffle(shuffled)
            for other in (system[::-1], shuffled):
                lin_o, rays_o = double_description(dim, other)
                assert lin_o == lin
                assert len(rays_o) == len(rays) and set(rays_o) == set(rays)

    def test_double_description_continued_from_a_prefix_equals_the_cold_run(self):
        # order._bound_vertices starts the DD from a known pointed cone.  Here
        # the start is the DD pair of a pointed prefix of the system, its
        # masks read off <a, r> = 0; continuing with the rest (possibly
        # nothing) must give the rays of the cold run on the whole system.
        rng = rng_for(41, "ddwarm")
        seen = {"empty_rest": 0, "cut": 0, "zero_cone": 0}
        for trial in range(240):
            dim = 1 + trial % 6
            while True:
                prefix = [V(*(rng.randint(-3, 3) for _ in range(dim)))
                          for _ in range(rng.randint(dim, dim + 3))]
                if mat_rank(prefix) == dim:
                    break
            rest = [V(*(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim)))
                    for _ in range(rng.choice((0, 1, 2, dim + 2)))]
            rest += [r for r in rest if rng.random() < 0.2]
            lin0, rays0 = double_description(dim, prefix)
            assert lin0 == []
            tight0 = [sum(1 << i for i, a in enumerate(prefix) if not vec_dot(a, r))
                      for r in rays0]
            lin, rays = double_description(dim, rest, (rays0, tight0, len(prefix)))
            lin_c, rays_c = double_description(dim, prefix + rest)
            assert lin == lin_c == []
            assert len(rays) == len(rays_c) and set(rays) == set(rays_c)
            if not rest:
                assert rays == rays0
                seen["empty_rest"] += 1
            seen["cut"] += set(rays) != set(rays0)
            seen["zero_cone"] += not rays
        assert min(seen.values()) >= 20, seen

    def test_pointed_and_generating_against_rank(self):
        # The flags read off the DD pass and the tight masks against mat_rank:
        # {x : Ax >= 0} is pointed iff rank A = dim, and cone(A) is generating
        # iff rank A = dim.
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

    def test_one_pass_builders_match_two_pass_reference(self):
        # The DD reference systems (dims 1-8: redundant, duplicated, negated,
        # positively scaled, zero and Fraction rows, some from a proper
        # subspace) and the empty list in every dim, as generators and as
        # facets, against the builders with two DD passes.
        inputs = list(_dd_reference_systems()) + [(dim, []) for dim in range(1, 9)]
        paths = {}
        for dim, vectors in inputs:
            for build, reference in TWO_PASS_REFERENCE.items():
                # dataclass equality: _gen_ints, _facet_ints, pointed, generating
                cone, ref = build(dim, vectors), reference(dim, vectors)
                assert cone == ref and hash(cone) == hash(ref)
                # the fields are int tuples; the views are the same in Fractions
                for c in (cone, ref):
                    for ints, view in ((c._gen_ints, c.generators), (c._facet_ints, c.facets)):
                        assert type(ints) is tuple and all(type(v) is tuple for v in ints)
                        assert all(type(x) is int for v in ints for x in v)
                        assert all(type(x) is Fraction for v in view for x in v)
                        assert view == ints
                key = (build.__name__, cone.pointed, cone.generating)
                paths[key] = paths.get(key, 0) + 1
        assert len(inputs) >= 500
        # both fallbacks and the one-pass path of a pointed, non-generating
        # cone from generators all run
        for key in (("cone_from_generators", False, True), ("cone_from_generators", True, False),
                    ("cone_from_facets", True, False), ("cone_from_facets", False, False)):
            assert paths.get(key, 0) >= 20, key

    @pytest.mark.parametrize("build, dim, vectors, passes", [
        (cone_from_generators, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 1),
        # pointed, not generating: the facets carry the +/- pair of V^perp
        (cone_from_generators, 3, [(1, 0, 0), (0, 1, 0), (1, 1, 0)], 1),
        (cone_from_generators, 3, [], 1),
        (cone_from_generators, 2, [(1, 0), (-1, 0), (0, 1)], 2),
        (cone_from_facets, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], 1),
        # generating, not pointed: a half-plane
        (cone_from_facets, 2, [(0, 1)], 1),
        (cone_from_facets, 2, [], 1),
        (cone_from_facets, 2, [(1, 0), (-1, 0), (0, 1)], 2),
    ])
    def test_double_description_passes_per_build(self, monkeypatch, build, dim, vectors, passes):
        # One DD pass per build; the second only for a cone from generators
        # with lineality or a cone from facets that is not generating.
        calls = []
        dd = cones.double_description

        def counted(*args):
            calls.append(args)
            return dd(*args)

        monkeypatch.setattr(cones, "double_description", counted)
        cone = build(dim, vectors)
        assert len(calls) == passes
        assert (passes == 1) == (cone.pointed if build is cone_from_generators
                                 else cone.generating)

    @pytest.mark.parametrize("build, dim, vectors, shape", [
        (cone_from_generators, 1, [(2,)], (1, 1, True, True)),
        (cone_from_generators, 1, [(2,), (-3,)], (2, 0, False, True)),
        (cone_from_generators, 1, [(0,)], (0, 2, True, False)),
        (cone_from_facets, 1, [(5,)], (1, 1, True, True)),
        (cone_from_facets, 1, [], (2, 0, False, True)),
        (cone_from_facets, 1, [(1,), (-1,)], (0, 2, True, False)),
        (cone_from_generators, 3, [], (0, 6, True, False)),
        (cone_from_facets, 2, [], (4, 0, False, True)),
        (cone_from_facets, 3, [(0, 0, 2)], (5, 1, False, True)),
    ])
    def test_degenerate_inputs_against_reference(self, build, dim, vectors, shape):
        # dim 1 ray, line and {0} from either side, the trivial cone, the
        # whole space and a half-space: (#generators, #facets, pointed,
        # generating), and every field equal to the two-pass builders'
        cone = build(dim, vectors)
        assert cone == TWO_PASS_REFERENCE[build](dim, vectors)
        assert (len(cone.generators), len(cone.facets), cone.pointed, cone.generating) == shape


TWO_PASS_REFERENCE = {cone_from_generators: cone_from_generators_reference,
                      cone_from_facets: cone_from_facets_reference}


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


def test_queries_never_build_the_fraction_views():
    # Membership, the order, lattice operations, the order-unit norm and a
    # linear iso's construction and battery all read the int fields alone.
    gens = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    by_facets = ((0, 0, 1), (0, 1, -1), (1, -1, 0))
    for cone in (cone_from_generators(3, gens), cone_from_facets(3, by_facets)):
        assert cone.contains((3, 2, 1)) and cone.leq((1, 0, 0), (2, 1, 0))
        assert cone.tight_facets((1, 1, 0)) == [0, 2]
        assert cone.is_extreme_vector((2, 2, 0))
        assert supremum(cone, [(1, 0, 0), (1, 1, 0)]).value == (2, 1, 0)
        assert infimum(cone, [(3, 2, 1), (2, 2, 1)]).value == (2, 2, 1)
        expr = sup_expr(leaf((1, 0, 0)), inf_expr(leaf((3, 2, 1)), leaf((2, 2, 1))))
        assert eval_infsup(cone, expr) == (3, 2, 1)
        assert order_unit_norm(cone, (3, 2, 1), (1, -1, 0)) == 2
        spec = make_linear_iso([(1, 0, 0), (0, 1, 0), (0, 0, 1)], cone, cone)
        assert check_order_iso_sampled(spec, 200, 0).verdict == "PassedSampling"
        assert "generators" not in cone.__dict__ and "facets" not in cone.__dict__
        assert cone._facet_ints == by_facets and cone.generators == gens
