import numpy as np
import pytest

from weakfuse.errors import ParseError, StructuralError
from weakfuse.model import (
    BetaParam,
    Dataset,
    FusionDesign,
    layout_from_design,
    validate_design,
)
from weakfuse.weights import WeightSpec, parse_term

from oracles import DiscreteLaw, assemble_beta, beta_slice


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
    # weight model written for index 1 attached to index 2
    design = small_design(weight_specs={(2, 2): _spec(1, ["z1"])})
    with pytest.raises(ParseError, match="index 1 used at index 2"):
        validate_design(design, _tiny_data())


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
    # a weak pair without a weight model has no block to give
    with pytest.raises(StructuralError) as err:
        layout_from_design(small_design(weight_specs={}))
    assert str(err.value) == "no weight model for weak source 2 at index 2"
