"""Message builders shared by the test modules.

They live outside conftest.py so test modules can import them by name: the
benchmark's own conftest.py is collected in the same run.
"""

from hypothesis import strategies as st

from argstruct.data import (
    ArgComponent,
    Checkworthiness,
    ComponentHate,
    Message,
    MessageLabel,
    Role,
)

CW = list(Checkworthiness)


def make_message(
    msg_id="m0",
    n_premises=2,
    label=MessageLabel.HATEFUL,
    premise_cw=None,
    premise_hate=None,
    conclusion_cw=Checkworthiness.CFS,
    conclusion_hate=ComponentHate.HATEFUL,
):
    premise_cw = premise_cw or [Checkworthiness.CFS] * n_premises
    premise_hate = premise_hate or [ComponentHate.NON_HATEFUL] * n_premises
    components = [
        ArgComponent(Role.PREMISE, i, premise_cw[i], premise_hate[i])
        for i in range(n_premises)
    ]
    components.append(
        ArgComponent(Role.CONCLUSION, n_premises, conclusion_cw, conclusion_hate)
    )
    return Message(id=msg_id, components=tuple(components), label=label)


@st.composite
def message_strategy(draw, max_premises=5):
    """Random valid message; hateful messages carry annotated components."""
    k = draw(st.integers(1, max_premises))
    label = draw(st.sampled_from([MessageLabel.HATEFUL, MessageLabel.NON_HATEFUL]))
    if label is MessageLabel.HATEFUL:
        hate_values = [ComponentHate.HATEFUL, ComponentHate.NON_HATEFUL]
    else:
        hate_values = [ComponentHate.UNANNOTATED]
    premise_cw = [draw(st.sampled_from(CW)) for _ in range(k)]
    premise_hate = [draw(st.sampled_from(hate_values)) for _ in range(k)]
    return make_message(
        msg_id=f"g{draw(st.integers(0, 10 ** 6))}",
        n_premises=k,
        label=label,
        premise_cw=premise_cw,
        premise_hate=premise_hate,
        conclusion_cw=draw(st.sampled_from(CW)),
        conclusion_hate=draw(st.sampled_from(hate_values)),
    )
