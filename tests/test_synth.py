import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argstruct.data import ComponentHate, MessageLabel, dataset_to_jsonl, validate_message
from argstruct.synth import GeneratorConfig, InvalidConfigError, generate


def test_deterministic_per_seed():
    cfg = GeneratorConfig(mode="table1", n_hateful=20, n_nonhateful=15, seed=5)
    assert generate(cfg) == generate(cfg)


def test_different_seeds_differ():
    a = generate(GeneratorConfig(mode="table1", n_hateful=30, n_nonhateful=30, seed=0))
    b = generate(GeneratorConfig(mode="table1", n_hateful=30, n_nonhateful=30, seed=1))
    assert a != b


@pytest.mark.parametrize("mode", ("table1", "separable"))
def test_generated_messages_are_valid(mode):
    d = generate(GeneratorConfig(mode=mode, n_hateful=40, n_nonhateful=30, seed=2))
    for m in d:
        validate_message(m)
    assert d.class_counts[MessageLabel.HATEFUL] == 40
    assert d.class_counts[MessageLabel.NON_HATEFUL] == 30


def test_ids_unique():
    d = generate(GeneratorConfig(mode="table1", n_hateful=50, n_nonhateful=50, seed=3))
    ids = [m.id for m in d]
    assert len(set(ids)) == len(ids)


def test_table1_nonhateful_components_unannotated():
    d = generate(GeneratorConfig(mode="table1", n_hateful=30, n_nonhateful=40, seed=4))
    for m in d:
        if m.label is MessageLabel.NON_HATEFUL:
            assert all(c.hate is ComponentHate.UNANNOTATED for c in m.components)
        else:
            assert all(c.hate is not ComponentHate.UNANNOTATED for c in m.components)


def test_separable_mode_plants_the_rule():
    d = generate(GeneratorConfig(mode="separable", n_hateful=60, n_nonhateful=60, seed=6))
    for m in d:
        has_hateful_component = any(
            c.hate is ComponentHate.HATEFUL for c in m.components
        )
        assert has_hateful_component == (m.label is MessageLabel.HATEFUL)


def test_separable_mode_is_stump_separable():
    # the conclusion hatefulness bit alone reproduces the gold label
    d = generate(GeneratorConfig(mode="separable", n_hateful=40, n_nonhateful=40, seed=3))
    for m in d:
        stump = m.conclusion.hate is ComponentHate.HATEFUL
        assert stump == (m.label is MessageLabel.HATEFUL)


def test_hateful_component_guarantee_flag():
    cfg = GeneratorConfig(
        mode="table1", n_hateful=80, n_nonhateful=10, seed=7,
        ensure_hateful_component=True,
    )
    for m in generate(cfg):
        if m.label is MessageLabel.HATEFUL:
            assert any(c.hate is ComponentHate.HATEFUL for c in m.components)


def test_premise_counts_respect_bounds():
    cfg = GeneratorConfig(mode="table1", n_hateful=200, n_nonhateful=200, seed=8,
                          max_premises=3)
    d = generate(cfg)
    counts = [m.premise_count for m in d]
    assert min(counts) >= 1 and max(counts) <= 3


def test_premise_count_means_near_targets():
    d = generate(GeneratorConfig(mode="table1", n_hateful=3000, n_nonhateful=3000, seed=9))
    hateful = [m.premise_count for m in d if m.label is MessageLabel.HATEFUL]
    nonhateful = [m.premise_count for m in d if m.label is MessageLabel.NON_HATEFUL]
    assert abs(np.mean(hateful) - 1.789) < 0.15
    assert abs(np.mean(nonhateful) - 2.654) < 0.15


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(mode="uniform", n_hateful=5, n_nonhateful=5),
        dict(mode="table1", n_hateful=0, n_nonhateful=5),
        dict(mode="table1", n_hateful=5, n_nonhateful=0),
        dict(mode="table1", n_hateful=5, n_nonhateful=5, hateful_premise_std=-1.0),
        dict(mode="table1", n_hateful=5, n_nonhateful=5, max_premises=0),
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(InvalidConfigError):
        GeneratorConfig(**kwargs)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), mode=st.sampled_from(["table1", "separable"]))
def test_generation_always_valid(seed, mode):
    d = generate(GeneratorConfig(mode=mode, n_hateful=6, n_nonhateful=6, seed=seed))
    for m in d:
        validate_message(m)
    assert d.premise_capacity >= 1


# sha256 of dataset_to_jsonl(generate(cfg)) for 60 hateful and 40 non-hateful
# messages, computed with the object-per-message generator and serializer;
# ensure_hateful_component is ignored in separable mode
_GENERATOR_DIGESTS = {
    ("table1", False, 0): "4690bad4463767a3bf0227f7ba4673b250ae6331e1c6f8ef2e2762f2074fe525",
    ("table1", False, 7): "6048020e7a5636f3c30573b316a8933133adff58d86059c5a8aa31b834b46469",
    ("table1", False, 501): "9940c9050f33f419d909f116ea7b6c2dd9d8001ee40112401a23fd5103620765",
    ("table1", True, 0): "43c3877629113e0ae0f42262b838b2c8020738185e22d7ccc5202bc414b45623",
    ("table1", True, 7): "fd6585eda02ab740694e1cc9e2bcd9b48038233859333ac6316fddb57dddb0b6",
    ("table1", True, 501): "dc14c5c72aea40894b94cb280ebd7230f5a64a33770566abf5e728da37a42f1c",
    ("separable", False, 0): "27a91a9e5de01297eb8e52840bb2a461a6120222c46d07a854f75ca9d7ce7c7b",
    ("separable", False, 7): "2aba163f74ed034ebb7c597e600a12ba0026091862c3a3308517bfdcf4a1b64c",
    ("separable", False, 501): "2dd7d32d022dc9e7c5f56327a467811183baff23e278b19567ced56c3034d29f",
    ("separable", True, 0): "27a91a9e5de01297eb8e52840bb2a461a6120222c46d07a854f75ca9d7ce7c7b",
    ("separable", True, 7): "2aba163f74ed034ebb7c597e600a12ba0026091862c3a3308517bfdcf4a1b64c",
    ("separable", True, 501): "2dd7d32d022dc9e7c5f56327a467811183baff23e278b19567ced56c3034d29f",
}


@pytest.mark.parametrize("mode, ensure, seed", sorted(_GENERATOR_DIGESTS))
def test_generated_bytes_are_pinned(mode, ensure, seed):
    cfg = GeneratorConfig(mode=mode, n_hateful=60, n_nonhateful=40, seed=seed,
                          ensure_hateful_component=ensure)
    digest = hashlib.sha256(dataset_to_jsonl(generate(cfg)).encode("utf-8")).hexdigest()
    assert digest == _GENERATOR_DIGESTS[mode, ensure, seed]
