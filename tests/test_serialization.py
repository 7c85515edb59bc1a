"""JSON shapes of the reports, value objects, kernels and weight forms.

Every shape here is derived from dataclass fields by ``errors.to_json``;
these tests pin the keys each object writes, so a renamed or added field
shows up as a failure rather than as a silent change to the artifacts.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

import hawkesmix as hm
from hawkesmix.errors import ConfigError
from hawkesmix.kernels import _FAMILIES
from hawkesmix.stats import DecayReport, HarnessReport, PathSample
from hawkesmix.testfunctions import _FORMS

A = np.array([1.0, 2.0])

CERT_KEYS = {"rho", "delta", "eps", "u0", "u", "c", "k0"}
MIXING_KEYS = {"beta", "gamma", "p", "q", "r", "nu", "c1_p", "c1_q",
               "c1_pair", "lags", "bounds", "truncation", "generations",
               "cert"}
DECAY_KEYS = {"i", "j", "window_len", "lags", "empirical", "empirical_se",
              "spectral", "bound", "replicates", "seed", "mixing"}
HARNESS_KEYS = {"replicates", "horizon", "seed", "grid",
                "sigma_T", "statistic_mean", "statistic_mean_se", "ks_stat",
                "ks_pvalue", "ks_critical", "level", "w_cov", "cov_target",
                "max_cov_dev", "cov_tol", "var_w1", "var_w1_tol", "flags",
                "passed"}


def _cert():
    return hm.ContractionCert(0.7, 1.2, 0.1, 0.3, A, 0.9, 4)


def _mixing():
    return hm.MixingBoundReport(1.0, 0.5, 6.0, 6.0, 4 / 3, 1.5, 2.0, 2.0,
                                3.0, _cert(), A, A, A, 54)


def _harness():
    return HarnessReport(
        replicates=10, horizon=100.0, seed=1, grid=A,
        sigma_T=2.0, statistic_mean=0.1, statistic_mean_se=0.2, ks_stat=0.3,
        ks_pvalue=0.4, ks_critical=0.5, level=0.01, w_cov=np.eye(2),
        cov_target=np.eye(2), max_cov_dev=0.1, cov_tol=1.0, var_w1=1.0,
        var_w1_tol=0.5, flags={"normal_ks": True, "brownian_cov": True},
        samples=A, w_paths=np.eye(2))


def _decay(mixing):
    return DecayReport(0, 1, 1.0, A, A, A, A,
                       None if mixing is None else mixing.bounds, 10, 3,
                       mixing)


def _paths(payload, prefix=""):
    """Every key of ``payload`` as a path, descending into nested dicts."""
    out = set()
    for key, value in payload.items():
        out.add(prefix + key)
        if isinstance(value, dict):
            out |= _paths(value, f"{prefix}{key}/")
    return out


def _nested(name, keys):
    return {f"{name}/{k}" for k in keys}


SHAPES = [
    ("model_summary", lambda: hm.ModelSummary(np.eye(2), 0.5, A),
     {"reproduction", "rho", "mean_intensity"}),
    ("periodic_variance", lambda: hm.PeriodicVariance(2.0, 1e-3, 64),
     {"value", "tail_estimate", "n_terms"}),
    ("path_sample", lambda: PathSample(A, A, 2.0),
     {"grid", "values", "sigma_T"}),
    ("contraction_cert", _cert, CERT_KEYS),
    ("mixing_bound_report", _mixing,
     MIXING_KEYS | _nested("cert", CERT_KEYS)),
    ("harness_report", _harness,
     HARNESS_KEYS | {"flags/normal_ks", "flags/brownian_cov"}),
    ("decay_report_without_bound", lambda: _decay(None), DECAY_KEYS),
    ("decay_report_with_bound", lambda: _decay(_mixing()),
     DECAY_KEYS | _nested("mixing", MIXING_KEYS)
     | _nested("mixing/cert", CERT_KEYS)),
    ("exponential", lambda: hm.ExponentialKernel(0.5, 2.0),
     {"family", "alpha", "beta"}),
    ("powerlaw", lambda: hm.PowerLawKernel(0.5, 1.0, 2.5),
     {"family", "alpha", "c", "theta"}),
    ("uniform", lambda: hm.UniformKernel(0.5, 1.0), {"family", "alpha", "a"}),
    ("zero", lambda: hm.ZeroKernel(), {"family"}),
    ("constant", lambda: hm.ConstantF(1.0), {"form", "k"}),
    ("indicator", lambda: hm.IndicatorF(0.0, 1.0), {"form", "a", "b",
                                                     "amplitude"}),
    ("const_plus_indicator", lambda: hm.ConstPlusIndicatorF(1.0, 0.0, 1.0),
     {"form", "k", "a", "b", "amplitude"}),
]


@pytest.mark.parametrize("build, keys", [s[1:] for s in SHAPES],
                         ids=[s[0] for s in SHAPES])
def test_to_dict_keys(build, keys):
    payload = build().to_dict()
    assert _paths(payload) == keys
    # arrays arrive as lists, so the payload is plain JSON
    assert json.loads(json.dumps(payload, allow_nan=False)) == payload


# Written by HawkesModel.save and TestFunction.to_dict before the field-derived
# serializer; both must stay byte for byte the same.
SAVED_MODEL = """\
{
  "eta": [
    1.0,
    0.5
  ],
  "kernels": [
    [
      {
        "alpha": 0.3,
        "beta": 2.0,
        "family": "exponential"
      },
      {
        "alpha": 0.1,
        "c": 1.5,
        "family": "powerlaw",
        "theta": 2.5
      }
    ],
    [
      {
        "a": 0.75,
        "alpha": 0.2,
        "family": "uniform"
      },
      {
        "family": "zero"
      }
    ]
  ]
}
"""

SAVED_FORMS = (
    '[{"form": "constant", "k": 2.0}, {"a": 1.0, "amplitude": 0.5, "b": 3.0, '
    '"form": "indicator"}, {"a": 0.0, "amplitude": 1.0, "b": 2.0, "form": '
    '"const_plus_indicator", "k": 1.0}, {"a0": 1.0, "cos": [0.5], "form": '
    '"trigpoly", "period": 5.0, "sin": [0.25, 0.125]}, {"form": '
    '"periodic_samples", "period": 4.0, "samples": [1.0, 2.0, 0.5]}]'
)


def test_model_save_bytes(tmp_path):
    model = hm.HawkesModel([1.0, 0.5], [
        [hm.ExponentialKernel(0.3, 2.0), hm.PowerLawKernel(0.1, 1.5, 2.5)],
        [hm.UniformKernel(0.2, 0.75), hm.ZeroKernel()],
    ])
    model.save(tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text() == SAVED_MODEL
    assert hm.load_model(tmp_path / "model.json").to_dict() == model.to_dict()


def test_test_function_bytes():
    f = hm.TestFunction([
        hm.ConstantF(2.0), hm.IndicatorF(1.0, 3.0, 0.5),
        hm.ConstPlusIndicatorF(1.0, 0.0, 2.0),
        hm.TrigPolyF(5.0, 1.0, [0.5], [0.25, 0.125]),
        hm.SampledPeriodicF(4.0, [1.0, 2.0, 0.5]),
    ])
    assert json.dumps(f.to_dict(), sort_keys=True) == SAVED_FORMS
    assert hm.TestFunction.from_dict(f.to_dict()).to_dict() == f.to_dict()


SPECS = [
    hm.ExponentialKernel(0.3, 2.0), hm.PowerLawKernel(0.1, 1.5, 2.5),
    hm.UniformKernel(0.2, 0.75), hm.ZeroKernel(),
    hm.ConstantF(2.0), hm.IndicatorF(1.0, 3.0),
    hm.ConstPlusIndicatorF(1.0, 0.0, 2.0, -0.5),
    hm.TrigPolyF(5.0, 1.0, [0.5]), hm.TrigPolyF(5.0, 1.0, sin=[0.25, 0.125]),
    hm.SampledPeriodicF(4.0, [1.0, 2.0, 0.5]),
]


def test_specs_cover_every_family_and_form():
    assert ({type(s) for s in SPECS}
            == set(_FAMILIES.values()) | set(_FORMS.values()))


@pytest.mark.parametrize("obj", SPECS, ids=lambda s: type(s).__name__)
def test_spec_keys_are_fields(obj):
    """A spec holds its tag and one key per dataclass field, and builds the
    object back, also after a trip through JSON text."""
    if isinstance(obj, hm.Kernel):
        tag, build = "family", hm.kernel_from_dict
    else:
        tag, build = "form", hm.component_from_dict
    payload = obj.to_dict()
    assert set(payload) == {tag} | {f.name for f in fields(obj)}
    assert build(payload) == obj
    assert build(json.loads(json.dumps(payload))) == obj


# every family and form built from Python ints, tuples, numpy scalars and
# 1-d arrays instead of floats and lists
PYTHON_BUILT = [
    hm.ExponentialKernel(1, np.float32(2.5)),
    hm.PowerLawKernel(np.int64(0), 2, 3),
    hm.UniformKernel(np.float64(0.25), 1),
    hm.ZeroKernel(),
    hm.ConstantF(np.int64(2)),
    hm.IndicatorF(1, 3),
    hm.ConstPlusIndicatorF(1, 0, np.float32(0.5), -2),
    hm.TrigPolyF(5, 1, (1, np.float64(0.5)), np.array([0.25, 2])),
    hm.SampledPeriodicF(np.int32(4), np.array([1, 2, 3])),
]


def test_python_built_covers_every_family_and_form():
    assert ({type(s) for s in PYTHON_BUILT}
            == set(_FAMILIES.values()) | set(_FORMS.values()))


@pytest.mark.parametrize("obj", PYTHON_BUILT, ids=lambda s: type(s).__name__)
def test_python_built_saves_as_read_back(obj):
    """An object built in Python saves the bytes of the same object read
    back from its own JSON: every field is stored as a float."""
    text = json.dumps(obj.to_dict(), sort_keys=True)
    build = (hm.kernel_from_dict if isinstance(obj, hm.Kernel)
             else hm.component_from_dict)
    assert json.dumps(build(json.loads(text)).to_dict(), sort_keys=True) == text
    numbers = [x for key, v in obj.to_dict().items()
               if key not in ("family", "form")
               for x in (v if isinstance(v, list) else [v])]
    assert all(type(x) is float for x in numbers)


def test_python_built_model_saves_as_read_back():
    model = hm.HawkesModel(np.array([1, 2]), (PYTHON_BUILT[:2],
                                              PYTHON_BUILT[2:4]))
    text = json.dumps(model.to_dict(), sort_keys=True)
    rebuilt = hm.model_from_dict(json.loads(text))
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == text


BAD_FIELDS = {
    "samples-ragged": (lambda: hm.SampledPeriodicF(1.0, [[1.0, 2.0], [3.0]]),
                       "/samples/0"),
    "samples-2d": (lambda: hm.SampledPeriodicF(1.0, np.ones((2, 2))),
                   "/samples"),
    "cos-nested": (lambda: hm.TrigPolyF(1.0, 1.0, [[0.5, 0.2]]), "/cos/0"),
    "sin-string": (lambda: hm.TrigPolyF(1.0, 1.0, (), "ab"), "/sin"),
    "k-string": (lambda: hm.ConstantF("x"), "/k"),
    "alpha-string": (lambda: hm.ExponentialKernel("x", 1.0), "/alpha"),
    "alpha-bool": (lambda: hm.ExponentialKernel(True, 1.0), "/alpha"),
    "alpha-int-beyond-float": (lambda: hm.ExponentialKernel(10**400, 1.0),
                               "/alpha"),
    "amplitude-numpy-bool": (lambda: hm.IndicatorF(0.0, 1.0, np.bool_(True)),
                             "/amplitude"),
    "eta-string": (lambda: hm.HawkesModel(["a"], [[hm.ZeroKernel()]]),
                   "/eta/0"),
    "eta-bool": (lambda: hm.HawkesModel([False], [[hm.ZeroKernel()]]),
                 "/eta/0"),
}


@pytest.mark.parametrize("make, pointer", BAD_FIELDS.values(),
                         ids=BAD_FIELDS.keys())
def test_python_construction_refuses_bad_fields(make, pointer):
    """Python construction raises the ConfigError a JSON spec raises."""
    with pytest.raises(ConfigError) as exc:
        make()
    assert exc.value.pointer == pointer
