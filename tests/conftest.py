import pytest

from argstruct.data import (
    Checkworthiness,
    ComponentHate,
    Dataset,
    MessageLabel,
)
from argstruct.synth import CORPUS_SIZES, GeneratorConfig, generate
from messages import make_message


@pytest.fixture
def worked_message():
    """Two checkworthy non-hateful premises supporting a checkworthy hateful
    conclusion, in a hateful message."""
    return make_message()


@pytest.fixture
def small_dataset():
    messages = [
        make_message("h0", 2, MessageLabel.HATEFUL),
        make_message(
            "h1", 1, MessageLabel.HATEFUL,
            premise_cw=[Checkworthiness.NFS],
            premise_hate=[ComponentHate.HATEFUL],
            conclusion_cw=Checkworthiness.NFS,
            conclusion_hate=ComponentHate.NON_HATEFUL,
        ),
        make_message(
            "h2", 3, MessageLabel.HATEFUL,
            premise_cw=[Checkworthiness.UFS] * 3,
            premise_hate=[ComponentHate.NON_HATEFUL] * 3,
        ),
        make_message(
            "n0", 2, MessageLabel.NON_HATEFUL,
            premise_hate=[ComponentHate.UNANNOTATED] * 2,
            conclusion_hate=ComponentHate.UNANNOTATED,
        ),
        make_message(
            "n1", 1, MessageLabel.NON_HATEFUL,
            premise_cw=[Checkworthiness.UFS],
            premise_hate=[ComponentHate.UNANNOTATED],
            conclusion_cw=Checkworthiness.NFS,
            conclusion_hate=ComponentHate.UNANNOTATED,
        ),
        make_message(
            "n2", 3, MessageLabel.NON_HATEFUL,
            premise_hate=[ComponentHate.UNANNOTATED] * 3,
            conclusion_hate=ComponentHate.UNANNOTATED,
        ),
    ]
    return Dataset.from_messages(messages)


@pytest.fixture(scope="session")
def table1_dataset():
    return generate(
        GeneratorConfig(mode="table1", n_hateful=CORPUS_SIZES[0],
                        n_nonhateful=CORPUS_SIZES[1], seed=0)
    )


@pytest.fixture(scope="session")
def separable_dataset():
    return generate(
        GeneratorConfig(mode="separable", n_hateful=100, n_nonhateful=100, seed=7)
    )
