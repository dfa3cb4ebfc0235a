"""The bytes of the corpus-shaped grid, pinned by sha256.

The seed-501 corpus (227 hateful, 136 non-hateful ``table1`` messages) runs
the paper's 8 x 4 x 5 grid with seed 501, once serially in the default mode
and at default jobs with ``--inner-cv``, ``--hard-stage1`` and both. The
digests pin each run's markdown, csv and json reports, and every fold fit of
the default run through ``model_to_dict``, one digest per family over its fits
in grid order. The ``arg-str`` cells share the ``arg-str-p`` cells' fits, so
every family makes 35 fits, not 40, each equal to the fit its cell makes alone.

Float sums go through BLAS, so another numpy or BLAS build may move a digest
with no change to the code. The failure names each digest that moved, and
the numpy and BLAS versions of the run. To re-pin after a change that means
to move bytes, copy ``_digests(pytest.MonkeyPatch())`` into ``PINNED``.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

import argstruct.experiment as experiment
from argstruct.experiment import ExperimentConfig, emit_report, run_grid
from argstruct.models import fit_each
from argstruct.models.persist import model_to_dict
from argstruct.synth import GeneratorConfig, generate

PINNED = {
    "default/markdown":
        "b4563729066a8b59a7a0eeeab1f7f4f18e81a5e8540ba061ef3c3084897d1876",
    "default/csv":
        "d85431939c064c20f1269129a75645b69f7b8a4c7c2ee019a5b81ed2d044ae7d",
    "default/json":
        "183f2b5ae1e033a00a6137c3ed75098f52f88bd64103d8c63ec609a9bac2503d",
    "inner-cv/markdown":
        "c2b872088b89b0a720a5e32d1510a79143519478763eba768263b330afe8360b",
    "inner-cv/csv":
        "98cc146bde241afe7f79589ae442114b08e03231fdd40422f45e5e4263e61e0a",
    "inner-cv/json":
        "fdeb729f28ad3b972a25fba52228e1124e14ab55b52c463e4be804d18f0e433a",
    "hard-stage1/markdown":
        "a621415d3ba13c0eb1429fffa6e1d907d34e00ff085d95257d652ae301aab686",
    "hard-stage1/csv":
        "674b113981cbe1bcfda2b416fdf85d7c9536ab8b3cfd7c8685663e5b8e2ec1a3",
    "hard-stage1/json":
        "9790c66836d91c19603a8cecb427d40492d7db4abbf4018d07b7bb7c329e1728",
    "inner-cv-hard-stage1/markdown":
        "9d935e5dc6235951b162a5576645b8ca79acb49989cfb609160028e033153de7",
    "inner-cv-hard-stage1/csv":
        "4e297e622390130155588201deccd78926a087052443837e1bce3c58cdc83548",
    "inner-cv-hard-stage1/json":
        "f5515ea6e9f668d91f42729d797a87657aa267bee8af48ca729b2754f15370bf",
    "default/models/gbt (35 fits)":
        "e77f24268a877559c77df82298b1e4e507915f52d584dceafe20be142cc4ac0c",
    "default/models/lgr (35 fits)":
        "648fdc133ac528474d5dfa7f7ea1ea3b9026f23e21b0079377b0180c9fcfdb29",
    "default/models/rforest (35 fits)":
        "d1d630ed077e12dc652b8b6d188cd9c51e39272b8df1359bce78256cac979f3e",
    "default/models/svm (35 fits)":
        "165c48ef172b3f169772fb4c31f3d5bd9bd74ff9f6cb7da1fdc8e5bb58c63529",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(monkeypatch) -> dict:
    dataset = generate(GeneratorConfig(mode="table1", n_hateful=227, n_nonhateful=136, seed=501))
    fits: dict = {}

    def recording(spec, problems):
        models = fit_each(spec, problems)
        fits.setdefault(spec.family, []).extend(models)
        return models

    monkeypatch.setattr(experiment, "fit_each", recording)
    cfg = ExperimentConfig(seed=501)
    reports = {"default": run_grid(dataset, replace(cfg, jobs=1))}
    monkeypatch.undo()
    reports["inner-cv"] = run_grid(dataset, replace(cfg, inner_cv=True))
    reports["hard-stage1"] = run_grid(dataset, replace(cfg, hard_stage1=True))
    reports["inner-cv-hard-stage1"] = run_grid(dataset, replace(cfg, inner_cv=True,
                                                                hard_stage1=True))
    digests = {
        f"{mode}/{fmt}": _sha256(emit_report(report, fmt))
        for mode, report in reports.items() for fmt in ("markdown", "csv", "json")
    }
    for family, models in sorted(fits.items()):
        dumps = "".join(json.dumps(model_to_dict(m)) + "\n" for m in models)
        digests[f"default/models/{family} ({len(models)} fits)"] = _sha256(dumps)
    return digests


def _versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration given')})")


def test_grid_report_and_model_bytes_are_pinned(monkeypatch):
    got = _digests(monkeypatch)
    moved = [name for name in sorted(PINNED.keys() | got.keys())
             if PINNED.get(name) != got.get(name)]
    assert not moved, f"digests moved: {moved}; ran on {_versions()}"
