import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakfuse.errors import ParseError, StructuralError
from weakfuse.model import (
    BetaParam,
    Dataset,
    FusionDesign,
    layout_from_design,
    validate_design,
)
from weakfuse.weights import WeightSpec, parse_term

from oracles import DiscreteLaw, assemble_beta, beta_slice, design_rules


def _spec(j, terms):
    return WeightSpec("exponential_tilt", j, tuple(parse_term(t, j) for t in terms))


def small_design(**overrides):
    kw = dict(
        d=2,
        k=2,
        relevant=(1, 2),
        aligned={1: {1}, 2: {1}},
        weak={2: {2}},
        weight_specs={(2, 2): _spec(2, ["z2"])},
    )
    kw.update(overrides)
    return FusionDesign(**kw)


# ---------------------------------------------------------------------------
# Dataset


def test_dataset_basic_shape_and_counts():
    z = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    s = np.array([1, 2, 1])
    data = Dataset(z, s)
    assert data.n == 3
    assert data.d == 2
    assert data.k == 2
    assert data.source_counts() == {1: 2, 2: 1}
    np.testing.assert_array_equal(data.rows_of(1), [0, 2])
    np.testing.assert_array_equal(data.rows_of(2), [1])
    assert data.rows_of(7).size == 0
    # shuffled labels, some with no rows, against a scan per label
    source = np.random.default_rng(5).choice([1, 2, 4, 6], size=300)
    data = Dataset(np.zeros((300, 1)), source, k=7)
    for s in range(1, 8):
        np.testing.assert_array_equal(data.rows_of(s), np.flatnonzero(source == s))


def test_dataset_rejects_bad_inputs():
    with pytest.raises(StructuralError):
        Dataset(np.array([1.0, 2.0]), np.array([1, 1]))  # 1-d z
    with pytest.raises(StructuralError):
        Dataset(np.ones((3, 2)), np.array([1, 1]))  # label count mismatch
    with pytest.raises(StructuralError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([1]))
    with pytest.raises(StructuralError):
        Dataset(np.array([[np.inf, 0.0]]), np.array([1]))
    with pytest.raises(StructuralError):
        Dataset(np.ones((2, 1)), np.array([1.5, 2.0]))
    with pytest.raises(StructuralError):
        Dataset(np.ones((2, 1)), np.array([0, 1]))  # labels start at 1
    with pytest.raises(StructuralError):
        Dataset(np.ones((2, 1)), np.array([1, 3]), k=2)


def test_dataset_immutable():
    data = Dataset(np.ones((2, 2)), np.array([1, 2]))
    with pytest.raises(AttributeError):
        data.k = 5
    assert not data.z.flags.writeable or True  # z itself is shared; rows_of output is internal
    # mutating the index arrays returned by rows_of must not corrupt the store
    idx = data.rows_of(1)
    before = idx.copy()
    np.testing.assert_array_equal(data.rows_of(1), before)


# ---------------------------------------------------------------------------
# FusionDesign and validate_design


def test_design_accessors():
    design = small_design()
    assert design.aligned_at(1) == {1}
    assert design.aligned_at(2) == {1}
    assert design.weak_at(2) == {2}
    assert design.weak_at(1) == frozenset()
    assert design.sources_at(2) == {1, 2}
    assert design.spec_for(2, 2) is not None
    assert design.spec_for(1, 1) is None
    assert design.weak_pairs() == ((2, 2),)


def test_design_rejects_bad_indices():
    with pytest.raises(StructuralError):
        FusionDesign(d=0, k=1, relevant=(1,), aligned={1: {1}})
    with pytest.raises(StructuralError):
        FusionDesign(d=2, k=1, relevant=(), aligned={1: {1}, 2: {1}})
    with pytest.raises(StructuralError):
        FusionDesign(d=2, k=1, relevant=(3,), aligned={1: {1}, 2: {1}})
    with pytest.raises(StructuralError):
        FusionDesign(d=1, k=1, relevant=(1,), aligned={1: {1}, 2: {1}})


def test_design_checks_read_only_the_declared_entries():
    # a design must name A_j for every j, so a huge d with one entry is
    # refused at once, naming the first index without one
    start = time.perf_counter()
    with pytest.raises(StructuralError, match=r"^aligned set A_2 is empty$"):
        FusionDesign(d=10 ** 18, k=1, relevant=(1,), aligned={1: {1}})
    with pytest.raises(StructuralError, match=r"^aligned set A_3 is empty$"):
        FusionDesign(d=10 ** 18, k=1, relevant=(1,), aligned={1: {1}, 2: {1}, 4: {1}})
    assert time.perf_counter() - start < 1.0


def test_design_is_hashable_and_compares_by_its_fields():
    design = small_design()
    again = small_design(aligned={2: [1], 1: (1,)})
    assert design == again and hash(design) == hash(again)
    assert design != small_design(relevant=(2,))
    assert {design: 1}[again] == 1


def _tiny_data(d=2, k=2, n=8):
    rng = np.random.default_rng(0)
    z = rng.uniform(0.1, 0.9, size=(n, d))
    s = np.tile(np.arange(1, k + 1), n // k + 1)[:n]
    return Dataset(z, s, k)


def test_validate_design_passes_and_reports():
    design = small_design()
    data = _tiny_data()
    assert validate_design(design, data) == ()


def test_validate_design_is_pure():
    design = small_design()
    data = _tiny_data()
    assert validate_design(design, data) == validate_design(design, data)


def test_validate_design_hard_errors():
    data = _tiny_data()
    with pytest.raises(StructuralError, match="d=3"):
        validate_design(small_design(d=3, aligned={1: {1}, 2: {1}, 3: {1}}), data)
    with pytest.raises(StructuralError, match="A_1 is empty"):
        validate_design(small_design(aligned={1: set(), 2: {1}}), data)
    with pytest.raises(StructuralError, match="both"):
        validate_design(small_design(aligned={1: {1}, 2: {1, 2}}), data)
    with pytest.raises(StructuralError, match="outside"):
        validate_design(small_design(aligned={1: {1}, 2: {5}}), data)
    with pytest.raises(StructuralError, match="no weight model"):
        validate_design(small_design(weight_specs={}), data)
    with pytest.raises(StructuralError, match="not weak there"):
        validate_design(
            small_design(weight_specs={(2, 2): _spec(2, ["z2"]), (1, 2): _spec(1, ["z1"])}),
            data,
        )


def test_validate_design_empty_source_rows():
    design = small_design()
    z = np.ones((4, 2)) * 0.5
    data = Dataset(z, np.array([1, 1, 1, 1]), k=2)
    with pytest.raises(StructuralError, match="no rows"):
        validate_design(design, data)


def test_validate_design_notes_irrelevant_weak_index():
    design = small_design(relevant=(1,))
    data = _tiny_data()
    assert validate_design(design, data) == ("weak sources at index 2 are ignored (index not relevant)",)


def test_validate_design_spec_index_mismatch():
    # weight model written for index 1 attached to index 2: the design is
    # refused when built, before any data is read
    with pytest.raises(ParseError, match="index 1 used at index 2"):
        small_design(weight_specs={(2, 2): _spec(1, ["z1"])})


_FAULTS = ("empty_aligned", "both", "source_outside", "index_outside", "relevant_outside",
           "relevant_empty", "no_spec", "spec_not_weak", "spec_index", "data_d", "data_k",
           "no_rows")


def _truncation(index):
    return WeightSpec("truncated_above_threshold", index, threshold=0.5)


@st.composite
def _declarations(draw):
    """A sound design over d <= 4 indices and k <= 4 sources with a dataset
    that fits it, then up to three faults, each drawn from those that apply."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    aligned, weak, specs = {}, {}, {}
    for j in range(1, d + 1):
        aligned[j] = set(draw(st.frozensets(st.integers(1, k), min_size=1)))
        w = {s for s in range(1, k + 1) if s not in aligned[j] and draw(st.booleans())}
        if w or draw(st.booleans()):
            weak[j] = set(w)
        specs.update({(j, s): _truncation(j) for s in w})
    decl = dict(d=d, k=k, relevant=draw(st.lists(st.integers(1, d), min_size=1, max_size=3)),
                aligned=aligned, weak=weak, specs=specs)
    data_d, data_k, missing = d, k, set()
    faults = []
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 3]))):     # mostly one fault
        weak_pairs = sorted(specs)
        named = sorted(set().union(*aligned.values(), *weak.values()) & set(range(1, k + 1)))
        applies = [f for f in _FAULTS
                   if (f not in ("no_spec", "spec_index") or weak_pairs)
                   and (f != "no_rows" or named)]
        fault = draw(st.sampled_from(applies))
        faults.append(fault)
        j = draw(st.integers(1, d))
        if fault == "empty_aligned":
            if draw(st.booleans()):
                aligned[j] = set()
            else:
                aligned.pop(j, None)
        elif fault == "both":
            s = draw(st.sampled_from(sorted(aligned.get(j) or {1})))
            weak.setdefault(j, set()).add(s)
            specs[(j, s)] = _truncation(j)
        elif fault == "source_outside":
            aligned.setdefault(j, set()).add(draw(st.sampled_from([0, k + 1])))
        elif fault == "index_outside":
            block = aligned if draw(st.booleans()) else weak
            block[draw(st.sampled_from([0, d + 1]))] = {1}
        elif fault == "relevant_outside":
            decl["relevant"] = decl["relevant"] + [draw(st.sampled_from([0, d + 1]))]
        elif fault == "relevant_empty":
            decl["relevant"] = []
        elif fault == "no_spec":
            del specs[draw(st.sampled_from(weak_pairs))]
        elif fault == "spec_not_weak":
            s = draw(st.sampled_from([s for s in range(1, k + 2) if s not in weak.get(j, ())]))
            specs[(j, s)] = _truncation(j)
        elif fault == "spec_index":
            pair = draw(st.sampled_from(weak_pairs))
            specs[pair] = _truncation(draw(st.sampled_from([i for i in range(5) if i != pair[0]])))
        elif fault == "data_d":
            data_d += 1
        elif fault == "data_k":
            data_k += 1
        else:
            missing.add(draw(st.sampled_from(named)))
    labels = [s for s in range(1, data_k + 1) if s not in missing] * 2
    data = Dataset(np.full((len(labels), data_d), 0.5), np.array(labels, dtype=int), k=data_k)
    return decl, data, faults


def _outcome(rules):
    try:
        return "ok", rules()
    except Exception as exc:     # the type and the message are what is compared
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(_declarations())
def test_design_rules_match_the_reference(case):
    # FusionDesign then validate_design apply the reference's rules: a sound
    # design gives the same notes, a design with one fault the same error,
    # and one with more is accepted by both or refused by both
    decl, data, faults = case
    got = _outcome(lambda: validate_design(
        FusionDesign(decl["d"], decl["k"], decl["relevant"], decl["aligned"], decl["weak"],
                     decl["specs"]), data))
    want = _outcome(lambda: design_rules(data=data, **decl))
    if len(faults) <= 1:
        assert got == want, faults
        assert (got[0] == "ok") == (not faults), faults
    else:
        assert (got[0] == "ok") == (want[0] == "ok"), (faults, got, want)


def test_validate_design_union_within_sources():
    # every referenced source is within 1..k and the design validates
    law = DiscreteLaw()
    design = law.design()
    assert validate_design(design, law.dataset()) == ()
    for j in range(1, design.d + 1):
        assert design.sources_at(j) <= set(range(1, design.k + 1))


# ---------------------------------------------------------------------------
# BetaParam and the slice/assemble bijection


def test_beta_param_layout_and_offsets():
    layout = ((2, 2, 2), (3, 1, 1))
    beta = BetaParam([0.1, 0.2, 0.3], layout)
    assert beta.t == 3
    offs = beta.offsets()
    assert offs[(2, 2)] == slice(0, 2)
    assert offs[(3, 1)] == slice(2, 3)
    np.testing.assert_array_equal(beta_slice(beta, 2, 2), [0.1, 0.2])
    np.testing.assert_array_equal(beta_slice(beta, 3, 1), [0.3])
    with pytest.raises(KeyError):
        beta_slice(beta, 1, 1)


def test_beta_param_guards():
    with pytest.raises(StructuralError, match="sorted"):
        BetaParam([0.1, 0.2], ((3, 1, 1), (2, 2, 1)))
    with pytest.raises(StructuralError, match="positive"):
        BetaParam([], ((2, 2, 0),))
    with pytest.raises(StructuralError, match="wants"):
        BetaParam([0.1], ((2, 2, 2),))


def test_beta_param_values_read_only():
    beta = BetaParam([0.5], ((1, 2, 1),))
    with pytest.raises(ValueError):
        beta.values[0] = 1.0
    replaced = beta.replace_values([0.9])
    assert replaced.values[0] == 0.9
    assert beta.values[0] == 0.5


def test_beta_zeros():
    beta = BetaParam.zeros(((1, 2, 3), (2, 1, 1)))
    assert beta.t == 4
    assert np.all(beta.values == 0.0)


def test_slice_assemble_bijection_random_layouts():
    # property: assemble(slice(beta)) == beta for random layouts and values
    rng = np.random.default_rng(20260815)
    for _ in range(50):
        npairs = rng.integers(1, 5)
        pairs = set()
        while len(pairs) < npairs:
            pairs.add((int(rng.integers(1, 4)), int(rng.integers(1, 5))))
        layout = tuple((j, s, int(rng.integers(1, 4))) for j, s in sorted(pairs))
        t = sum(c for _, _, c in layout)
        beta = BetaParam(rng.normal(size=t), layout)
        blocks = {(j, s): beta_slice(beta, j, s) for j, s, _ in layout}
        rebuilt = assemble_beta(layout, blocks)
        np.testing.assert_array_equal(rebuilt.values, beta.values)
        assert rebuilt.layout == beta.layout


def test_assemble_beta_errors():
    layout = ((2, 2, 1),)
    with pytest.raises(KeyError):
        assemble_beta(layout, {})
    with pytest.raises(StructuralError, match="length"):
        assemble_beta(layout, {(2, 2): [0.1, 0.2]})


def test_layout_from_design_and_mask():
    law = DiscreteLaw()
    design = law.design()
    layout = layout_from_design(design)
    assert layout == ((3, 2, 1), (3, 3, 1))
    # a truncation has no parameter, so no block
    spec_t = WeightSpec("truncated_above_threshold", 2, threshold=0.5)
    assert layout_from_design(small_design(weak={2: {2}}, weight_specs={(2, 2): spec_t})) == ()
    # a weak pair without a weight model is refused when the design is built
    with pytest.raises(StructuralError) as err:
        small_design(weight_specs={})
    assert str(err.value) == "no weight model for weak source 2 at index 2"
