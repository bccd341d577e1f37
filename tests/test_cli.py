from __future__ import annotations

import argparse
import copy
import csv
import functools
import hashlib
import importlib.util
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from unittest import mock
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from routegame import (ConfigurationError, GameConfig, LuenbergerSpec, Scenario, SmoothingSpec,
                       check_obedience, cli, simulate)
from routegame.cli import (config_digest, config_to_dict, load_config, main)

from test_golden import cubic_config

REPO = Path(__file__).resolve().parent.parent
PAPER_CONFIG = REPO / "configs" / "paper_affine.yaml"
PAPER_CONFIG_NU1 = REPO / "configs" / "paper_affine_nu1.yaml"


def self_containing_list() -> list:
    """``[[...]]``: a list whose one entry is itself, as the YAML alias ``&a [*a]`` loads."""
    selfish = []
    selfish.append(selfish)
    return selfish


def holds_a_string(value) -> bool:
    """Whether a string is ``value``, or a value of a mapping or an entry of a list in it."""
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, str) or isinstance(value, list) and any(map(holds_a_string, value))


def write_config(path: Path, **overrides) -> Path:
    raw = yaml.safe_load(PAPER_CONFIG.read_text())
    raw.update(overrides)
    for key, val in list(raw.items()):
        if val is None:
            del raw[key]
    target = path / "config.yaml"
    target.write_text(yaml.safe_dump(raw))
    return target


class TestLoadConfig:
    def test_shipped_benchmark_config(self):
        cfg = load_config(PAPER_CONFIG)
        assert cfg.m_max == pytest.approx(51.0)
        assert cfg.signal.nu == 0.5
        assert cfg.prior.mu0 == pytest.approx([0.6, 0.4])
        assert cfg.m_init == 25.5
        assert cfg.theta_hat_init == 0.25
        assert cfg.rounds == 5000
        assert np.array_equal(cfg.disobedience.matrix, [[0, 1], [1, 0]])
        assert cfg.solver_tol == 1e-8
        assert cfg.scenario == Scenario.baseline()

    @pytest.mark.parametrize("key, value", [("rounds", 2.7), ("seed", 1.9), ("rounds", -0.5),
                                            ("seed", float("inf"))])
    def test_non_integral_integer_key_rejected(self, tmp_path, key, value):
        # int() would truncate 2.7 to 2 rounds
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigurationError, match=f"{key} must be an integer, got {value}"):
            load_config(path)

    @pytest.mark.parametrize("key", ["rounds", "seed"])
    def test_integral_float_is_an_integer(self, tmp_path, key):
        value = {"rounds": 3.0, "seed": 4.0}[key]
        cfg = load_config(write_config(tmp_path, **{key: value}))
        assert (cfg.rounds, cfg.seed) == (3 if key == "rounds" else 5000, 4 if key == "seed" else 0)
        assert isinstance(cfg.rounds, int) and isinstance(cfg.seed, int)

    def test_negative_constant_coefficient_rejected(self, tmp_path):
        path = write_config(tmp_path, coeffs=[[[-5, 25], [20, 15]], [[4, 2], [1, 2]]])
        with pytest.raises(ConfigurationError, match="nonnegative"):
            load_config(path)

    def test_default_disobedience_is_swap(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path)
        assert np.array_equal(cfg.disobedience.matrix, [[0, 1], [1, 0]])

    def test_signal_row_sum_named_by_state(self, tmp_path):
        path = write_config(tmp_path, signal=[[0.48, 0.0], [0.0, 0.5]])
        with pytest.raises(ConfigurationError, match="signal row omega1 sums to 0.48"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, bogus=1)
        with pytest.raises(ConfigurationError, match="bogus"):
            load_config(path)
        # keys of mixed types are listed sorted as text, not with a TypeError from sorted()
        raw = {**yaml.safe_load(PAPER_CONFIG.read_text()), 1: "a", "foo": "b"}
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        with pytest.raises(ConfigurationError, match=re.escape("unknown config keys ['1', 'foo']")):
            load_config(path)

    def test_missing_required_key(self, tmp_path):
        raw = yaml.safe_load(PAPER_CONFIG.read_text())
        del raw["prior"]
        target = tmp_path / "config.yaml"
        target.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigurationError, match="prior"):
            load_config(target)

    def test_parse_error_carries_location(self, tmp_path):
        target = tmp_path / "broken.yaml"
        target.write_text("states: [omega1\ncoeffs: 3\n")
        with pytest.raises(ConfigurationError, match="line"):
            load_config(target)

    def test_cross_checks(self, tmp_path):
        # coeffs alone give the number of links and the degree: a file that restates
        # either names a removed key, even where the value agrees with coeffs
        for key, value in (("links", 3), ("links", 2), ("degree", 2), ("degree", 1)):
            path = write_config(tmp_path, **{key: value})
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"unknown config keys ['{key}']")):
                load_config(path)

    def test_scenario_and_estimator_forms(self, tmp_path):
        path = write_config(tmp_path, scenario={"discounted": 0.9},
                            estimator={"luenberger": 0.0})
        cfg = load_config(path)
        assert cfg.scenario == Scenario.discounted(0.9)
        assert cfg.estimator == LuenbergerSpec(gain=(0.0, 0.0))

    def test_beta_schedule_exclusive(self, tmp_path):
        # a schedule is beta given as a list; beta_schedule and beta_max are removed keys
        for key, extra in (("beta_schedule", {"beta": 0.5, "beta_schedule": [0.4, 0.5]}),
                           ("beta_schedule", {"beta_schedule": [0.4, 0.5]}),
                           ("beta_max", {"beta_max": 0.7})):
            path = write_config(tmp_path, **extra)
            with pytest.raises(ConfigurationError,
                               match=re.escape(f"unknown config keys ['{key}']")):
                load_config(path)
        cfg = load_config(write_config(tmp_path, beta=[0.4, 0.5, 0.99], rounds=3))
        assert cfg.estimator == SmoothingSpec([0.4, 0.5, 0.99])

    def test_flag_style_scenario_strings(self):
        from routegame.cli import _parse_scenario
        assert _parse_scenario("baseline") == Scenario.baseline()
        assert _parse_scenario("dynamic-nu") == Scenario.dynamic_nu()
        assert _parse_scenario("dynamic_nu") == Scenario.dynamic_nu()
        assert _parse_scenario("discounted=0.9") == Scenario.discounted(0.9)
        # only the name reads a dash as an underscore, not the discount after "="
        assert _parse_scenario("discounted=1e-3") == Scenario.discounted(1e-3)
        with pytest.raises(ConfigurationError):
            _parse_scenario("weekly")
        for value in ("dynamic-nu=0.5", "baseline=1", "discounted"):
            with pytest.raises(ConfigurationError, match="unknown scenario"):
                _parse_scenario(value)

    @pytest.mark.parametrize("states, labels", [
        (["omega1", 2], ("omega1", "2")),
        ([1.5, -0.0], ("1.5", "-0.0")),
    ])
    def test_state_labels_are_strings_or_numbers(self, tmp_path, states, labels):
        assert load_config(write_config(tmp_path, states=states)).latency.states == labels

    def test_flag_style_estimator_strings(self):
        from routegame.cli import _parse_estimator
        # smoothing selects the spec that holds the file's beta and beta_min
        file_pair = SmoothingSpec(0.6, beta_min=0.55)
        assert _parse_estimator("smoothing", 2, file_pair) is file_pair
        assert _parse_estimator("luenberger", 2, file_pair) == LuenbergerSpec(gain=(0.0, 0.0))
        assert _parse_estimator("luenberger=0.5", 3, file_pair) == LuenbergerSpec(
            gain=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigurationError):
            _parse_estimator("kalman", 2, file_pair)
        # only luenberger and luenberger=GAIN select the observer; null is no estimator
        for value in ("luenberger0.5", "luenbergerx", None):
            with pytest.raises(ConfigurationError, match="unknown estimator"):
                _parse_estimator(value, 2, file_pair)

    @pytest.mark.parametrize("line, field, value", [
        ("solver_tol: 1e-9", "solver_tol", 1e-9),
        ("m_init: -2e+1", "m_init", -20.0),
        ("rounds: 1e2", "rounds", 100),
        ("scenario: {discounted: 9e-1}", "scenario", Scenario.discounted(0.9)),
        ("estimator: {luenberger: [1e-3, 0]}", "estimator", LuenbergerSpec((0.001, 0.0))),
        # and so is one at any depth of an array key's lists
        ("prior: [0.6, 4e-1]", "prior.mu0", [0.6, 0.4]),
        ("disobedience: [[0, 1e+0], [1e0, 0]]", "disobedience.matrix", [[0.0, 1.0], [1.0, 0.0]]),
    ])
    def test_number_spelled_without_a_dot(self, tmp_path, line, field, value):
        # YAML 1.1 reads an exponent written without a dot as a string
        key = line.partition(":")[0]
        assert holds_a_string(yaml.safe_load(line)[key])
        target = tmp_path / "config.yaml"
        text = re.sub(rf"^{key}: .*\n", "", PAPER_CONFIG.read_text(), flags=re.M)
        target.write_text(text + line + "\n")
        got = attrgetter(field)(load_config(target))
        if isinstance(got, np.ndarray):
            got = got.tolist()
        assert got == value and type(got) is type(value)

    def test_beta_checked_under_the_observer(self, tmp_path, capsys):
        # --estimator smoothing reads the file's beta, so the observer does not hide a bad one
        path = write_config(tmp_path, estimator={"luenberger": 0.0}, beta=True)
        assert main(["check-obedience", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: beta must be a number, got True\n"

    def test_beta_schedule_must_cover_rounds(self, tmp_path):
        path = write_config(tmp_path, beta=[0.4, 0.5, 0.6], rounds=10)
        with pytest.raises(ConfigurationError, match="beta schedule has 3 entries"):
            load_config(path)
        path = write_config(tmp_path, beta=[0.4, 0.5, 0.6], rounds=3)
        cfg = load_config(path)
        assert cfg.estimator.beta == (0.4, 0.5, 0.6)


def parity_config(name: str, tmp_path: Path) -> Path:
    """A shipped config, or a generated cubic file in flow style (``cubic_n32``, ``cubic_n128``)."""
    if not name.startswith("cubic_n"):
        return REPO / "configs" / f"{name}.yaml"
    target = tmp_path / f"{name}.yaml"
    target.write_text(yaml.safe_dump(config_to_dict(cubic_config(n=int(name[len("cubic_n"):]))),
                                     default_flow_style=None, sort_keys=False))
    return target


@pytest.mark.parametrize("name", ["paper_affine", "paper_affine_nu1", "cubic_n32"])
class TestYamlParity:
    def test_loader_matches_pure_python(self, name, tmp_path, monkeypatch):
        assert issubclass(cli._Loader,
                          yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
        path = parity_config(name, tmp_path)
        selected = config_digest(load_config(path))
        monkeypatch.setattr(cli, "_Loader", yaml.SafeLoader)
        assert config_digest(load_config(path)) == selected

    def test_resolved_dump_matches_safe_dump(self, name, tmp_path):
        path = parity_config(name, tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--rounds", "1", "--out", str(out)]) == 0
        expected = yaml.safe_dump(config_to_dict(replace(load_config(path), rounds=1)),
                                  sort_keys=False)
        assert (out / "resolved_config.yaml").read_text() == expected


@functools.cache
def cli_without_libyaml():
    """``routegame.cli`` as it loads where PyYAML has no libyaml: its ``_Loader`` subclasses
    ``yaml.SafeLoader``.  A second copy of the module; ``routegame.cli`` is left as it is."""
    spec = importlib.util.spec_from_file_location("routegame._cli_without_libyaml", cli.__file__)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(yaml, "__with_libyaml__", False):
        spec.loader.exec_module(module)
    return module


def one_step_and_stock_loaders() -> list[tuple[type, type]]:
    """``cli._Loader`` over each parser PyYAML has here, each paired with the stock loader."""
    pairs = [(cli_without_libyaml()._Loader, yaml.SafeLoader)]
    if yaml.__with_libyaml__:
        pairs.append((cli._Loader, yaml.CSafeLoader))
    return pairs


def typed(value):
    """``value`` as nested (type, repr) pairs, so that -0.0 and 0.0, 1 and 1.0, and nan compare."""
    if isinstance(value, dict):
        return "dict", [(typed(k), typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return "list", [typed(v) for v in value]
    return type(value).__name__, repr(value)


def loaded(loader: type, text: str):
    """What ``loader`` makes of ``text``: its typed value, or the error it raises."""
    try:
        return typed(yaml.load(text, Loader=loader))
    except Exception as exc:  # an explicit !!int on a float raises ValueError, not a YAMLError
        return "error", type(exc).__name__, str(exc)


# Characters of a generated number: ASCII digits most often, then an underscore
# and two digits that are not ASCII (Arabic-Indic three, fullwidth one).
NUMBER_CHARS = st.sampled_from("0123456789" * 3 + "_\u0663\uff11")


@st.composite
def number_spellings(draw) -> str:
    """A plain scalar shaped like a YAML 1.1 number: a decimal with or without a dot and a
    signed or unsigned exponent, a 0x/0b/0o radix, or a sexagesimal number."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    whole = draw(st.text(NUMBER_CHARS, max_size=4))
    form = draw(st.sampled_from(["decimal", "decimal", "decimal", "radix", "sexagesimal"]))
    if form == "radix":
        prefix = draw(st.sampled_from(["0x", "0b", "0o", "0X"]))
        return sign + prefix + draw(st.text(st.sampled_from("0123456789abcdefABCDEF_"),
                                            min_size=1, max_size=4))
    if form == "sexagesimal":
        minutes = draw(st.text(NUMBER_CHARS, min_size=1, max_size=2))
        return sign + whole + ":" + minutes + draw(st.sampled_from(["", ".5", "."]))
    dot = draw(st.sampled_from(["", ".", "."]))
    fraction = draw(st.text(NUMBER_CHARS, max_size=4)) if dot else ""
    exponent = ""
    if draw(st.booleans()):
        exponent = (draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "-", "+"]))
                    + draw(st.text(NUMBER_CHARS, min_size=1, max_size=3)))
    return sign + whole + dot + fraction + exponent or "0"


# YAML 1.1's other plain scalars that start like a number or stand for one.
OTHER_SCALARS = [".inf", "-.inf", "+.Inf", ".NaN", ".nan", "~", "null", "true", "False",
                 "yes", "Off", "2001-12-14", "omega1", ".", "-0", "+0.0", "-0.0", "0.0"]


@st.composite
def scalar_texts(draw) -> str:
    """A generated scalar as a document writes it: plain, quoted, or with an explicit tag.

    ``!!float`` tags only a number's spelling and ``!!int`` only an integer's, where most
    of them load, so that few documents fail as a whole.
    """
    form = draw(st.sampled_from(["plain"] * 6 + ["quoted", "!!float", "!!int", "other tag"]))
    if form == "!!int":
        return "!!int " + draw(st.from_regex(r"[-+]?[0-9]{1,3}", fullmatch=True))
    text = draw(number_spellings() if form == "!!float" else
                number_spellings() | st.sampled_from(OTHER_SCALARS))
    if form == "quoted":
        return draw(st.sampled_from(["'{}'", '"{}"'])).format(text)
    if form == "other tag":
        return draw(st.sampled_from(["!!str", "!"])) + " " + text
    return ("!!float " if form == "!!float" else "") + text


@st.composite
def documents(draw) -> str:
    """A config-shaped document of generated scalars: a ``states`` list in flow or block
    style, nested flow lists, anchors and aliases, a merge key and a scalar used as a key."""
    def items() -> list[str]:
        return draw(st.lists(scalar_texts(), min_size=1, max_size=3))

    def one() -> str:
        return draw(scalar_texts())

    if draw(st.booleans()):
        lines = [f"states: [{', '.join(items())}]"]
    else:
        lines = ["states:"] + [f"  - {s}" for s in items()]
    lines += [
        f"rows: &rows [[{', '.join(items())}], [{one()}]]",
        "again: *rows",
        f"one: &one {one()}",
        "twice: [*one, *one]",
        f"merged: {{<<: {{x: {one()}, y: {one()}}}, x: {one()}}}",
        f"{one()}: a scalar key",
    ]
    return "\n".join(lines) + "\n"


class TestOneStepLoader:
    """``cli._Loader`` reads each plain number in one step, to what the stock loader reads."""

    @settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @given(text=documents())
    @example(text="x: [-0.0, 0.0, 1, 1.0, -0, 1.e+5, 1e5, 1.0e5, 010, 0x1f, 1_000.5, 1:30, "
                  ".inf, .nan, ~, true, '1.5', !!float 1, !!str 1.5, \u0663.5]\n")
    @example(text="x: !!map abc\n")  # a mapping tag on a scalar: PyYAML's own error
    def test_loads_what_the_stock_loader_loads(self, text):
        for ours, stock in one_step_and_stock_loaders():
            assert loaded(ours, text) == loaded(stock, text)

    def test_without_libyaml_subclasses_the_pure_python_loader(self):
        loader = cli_without_libyaml()._Loader
        assert issubclass(loader, yaml.SafeLoader) and not issubclass(loader, yaml.CSafeLoader)

    @pytest.mark.parametrize("name", ["paper_affine", "paper_affine_nu1", "cubic_n32",
                                      "cubic_n128"])
    def test_every_loader_gives_one_digest(self, name, tmp_path, monkeypatch):
        path = parity_config(name, tmp_path)
        digests = {config_digest(cli_without_libyaml().load_config(path))}
        for loader in (cli._Loader, yaml.SafeLoader, cli._SafeLoader):
            monkeypatch.setattr(cli, "_Loader", loader)
            digests.add(config_digest(load_config(path)))
        assert len(digests) == 1

    @pytest.mark.parametrize("line, key, at", [
        ("nu: 0.9", "nu", 19),          # nu: 0.5 is on line 11
        ("rounds: 50", "rounds", 19),   # would silently change the run length
        ("estimator: {luenberger: 0, luenberger: 1}", "luenberger", 19),
    ])
    def test_key_given_twice_is_an_error(self, tmp_path, capsys, line, key, at):
        path = tmp_path / "twice.yaml"
        path.write_text(PAPER_CONFIG.read_text() + line + "\n")
        message = f"{path}: key {key!r} is given twice, the second time on line {at}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            load_config(path)
        assert main(["check-obedience", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nested_key_given_twice_in_block_style(self, tmp_path):
        path = tmp_path / "twice.yaml"
        path.write_text(PAPER_CONFIG.read_text() + "scenario:\n  discounted: 0.5\n"
                        "  discounted: 0.9\n")
        with pytest.raises(ConfigurationError, match="key 'discounted' is given twice, "
                                                     "the second time on line 21"):
            load_config(path)

    @pytest.mark.parametrize("key, value, reason", [
        ("rounds", "1" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
        ("rounds", "!!int 1.5", "invalid literal for int() with base 10: '1.5'"),
        ("seed", "!!float abc", "could not convert string to float: 'abc'"),
    ], ids=["rounds-5000-digits", "rounds-int-1.5", "seed-float-abc"])
    def test_value_yaml_cannot_construct_is_an_error(self, tmp_path, capsys, key, value, reason):
        # int() or float() raises ValueError while the document is built, not a traceback
        path = tmp_path / "unbuildable.yaml"
        path.write_text(re.sub(rf"(?m)^{key}: .*$", f"{key}: {value}", PAPER_CONFIG.read_text()))
        message = f"{path}: parse error: {reason}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            load_config(path)
        assert main(["check-obedience", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_merge_keys_keep_their_meaning(self, tmp_path):
        # a key of the mapping overrides the merged one, and two merges may share a key
        path = tmp_path / "merged.yaml"
        path.write_text(PAPER_CONFIG.read_text() + "scenario: {<<: [{discounted: 0.5}, "
                        "{discounted: 0.7}], <<: {discounted: 0.8}, discounted: 0.9}\n")
        assert load_config(path).scenario == Scenario.discounted(0.9)
        text = "base: &b {x: 1, y: 2.5}\nover: {<<: *b, x: 3}\n"
        assert yaml.load(text, Loader=cli._Loader) == {"base": {"x": 1, "y": 2.5},
                                                       "over": {"x": 3, "y": 2.5}}


class TestDigest:
    def test_round_trip_reproduces_digest(self, tmp_path):
        cfg = load_config(PAPER_CONFIG)
        dump = tmp_path / "resolved.yaml"
        dump.write_text(yaml.safe_dump(config_to_dict(cfg)))
        again = load_config(dump)
        assert config_digest(again) == config_digest(cfg)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_digest_ignores_numeric_type(self, data):
        # an int, a float and an np.float64 of one value give one config; so does its dump
        field, low, high = data.draw(st.sampled_from([
            ("m_max", 51, 10**6), ("m_init", -51, 51), ("theta_hat_init", 0, 1),
            ("beta_min", 0.01, 0.49), ("solver_tol", 1e-12, 10)]))
        top = math.floor(high)
        ints = st.integers(math.ceil(low), top) if math.ceil(low) <= top else st.nothing()
        value = data.draw(st.one_of(ints, st.floats(low, high)))
        # -0.0 has no int form: int(-0.0) is 0, which is the value 0.0, not -0.0
        same_int = value == int(value) and math.copysign(1.0, value) == 1.0
        forms = [float(value), np.float64(value)] + ([int(value)] if same_int else [])
        base = load_config(PAPER_CONFIG)

        def with_value(v) -> GameConfig:  # beta_min is the smoothing spec's
            if field == "beta_min":
                return replace(base, estimator=SmoothingSpec(base.estimator.beta, beta_min=v))
            return replace(base, **{field: v})
        digests = {config_digest(with_value(form)) for form in forms}
        assert len(digests) == 1
        with tempfile.TemporaryDirectory() as tmp:
            dump = Path(tmp) / "resolved.yaml"
            dump.write_text(yaml.safe_dump(config_to_dict(with_value(value))))
            assert {config_digest(load_config(dump))} == digests

    def test_digest_changes_with_any_field(self, tmp_path):
        def digest(**overrides) -> str:
            return config_digest(load_config(write_config(tmp_path, **overrides)))

        # two links admit one disobedience matrix, the default, so that key is varied on three
        three = dict(coeffs=[[[5, 25, 10], [20, 15, 10]], [[4, 2, 1], [1, 2, 1]]],
                     signal=[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]])
        variants = {
            "states": ({}, dict(states=["a", "b"])),
            "coeffs": ({}, dict(coeffs=[[[5, 25], [20, 15]], [[4, 2], [1, 3]]])),
            "prior": ({}, dict(prior=[0.7, 0.3])),
            "nu": ({}, dict(nu=0.6, signal=[[0.6, 0.0], [0.0, 0.6]])),
            "signal": ({}, dict(signal=[[0.25, 0.25], [0.0, 0.5]])),
            "disobedience": (three, dict(three, disobedience=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])),
            "beta": ({}, dict(beta=0.6)),
            "scenario": ({}, dict(scenario="dynamic_nu")),
            "estimator": ({}, dict(estimator={"luenberger": 0.0})),
            "m_max": ({}, dict(m_max=60.0)),
            "m_init": ({}, dict(m_init=25.0)),
            "theta_hat_init": ({}, dict(theta_hat_init=0.3)),
            "beta_min": ({}, dict(beta_min=0.2)),
            "solver_tol": ({}, dict(solver_tol=1e-7)),
            "rounds": ({}, dict(rounds=10)),
            "seed": ({}, dict(seed=1)),
        }
        assert list(variants) == list(cli._KEYS)
        for key, (base, changed) in variants.items():
            assert digest(**changed) != digest(**base), key

    def test_observer_digest_ignores_smoothing_keys(self, tmp_path):
        # the digest stands for the run, and the observer reads neither beta nor beta_min
        def digest(**overrides) -> str:
            return config_digest(load_config(write_config(
                tmp_path, estimator={"luenberger": 0.0}, rounds=10, **overrides)))

        base = digest()
        for overrides in (dict(beta=0.6), dict(beta_min=0.45), dict(beta=0.8, beta_min=0.6),
                          dict(beta=[0.6] * 10)):
            assert digest(**overrides) == base, overrides


class TestSimulateCommand:
    def test_outputs_and_schema(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "40",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [3]
        assert manifest["config_digest"]
        assert manifest["artifact_version"]
        run = manifest["runs"][0]
        assert run["seed"] == 3 and run["wall_clock_s"] > 0
        with open(out / run["path"]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "omega", "theta", "theta_hat", "e_theta", "u", "m",
                           "x_1", "x_2", "xhat_1", "xhat_2", "y_1", "y_2",
                           "ell_1", "ell_2", "flow_gap"]
        assert len(rows) == 41
        assert rows[1][0] == "1"
        assert rows[1][1] in ("omega1", "omega2")
        # resolved dump must itself be a loadable config with the same digest
        resolved = load_config(out / manifest["resolved_config"])
        assert config_digest(resolved) == manifest["config_digest"]

    @pytest.mark.parametrize("scenario", ["baseline", "discounted=0.9", "dynamic-nu"])
    @pytest.mark.parametrize("estimator", ["smoothing", "luenberger=0.01"])
    def test_resolved_config_reproduces_the_run(self, tmp_path, scenario, estimator):
        # it stands for the run, not the file: the observer reads neither beta nor beta_min,
        # so 0.6 and 0.55 are not kept, and the defaults written load under either estimator
        path = write_config(tmp_path, beta=0.6, beta_min=0.55)
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["simulate", "--config", str(path), "--rounds", "60", "--seed", "2",
                     "--scenario", scenario, "--estimator", estimator, "--out", str(first)]) == 0
        resolved = first / "resolved_config.yaml"
        written = yaml.safe_load(resolved.read_text())
        assert (written["beta"], written["beta_min"]) == (
            (0.6, 0.55) if estimator == "smoothing" else (0.5, 0.3))
        assert main(["simulate", "--config", str(resolved), "--seed", "2",
                     "--out", str(again)]) == 0
        csv_name = "run000_seed2.csv"
        assert (again / csv_name).read_bytes() == (first / csv_name).read_bytes()
        assert resolved.read_bytes() == (again / "resolved_config.yaml").read_bytes()
        assert main(["simulate", "--config", str(resolved), "--estimator", "smoothing",
                     "--out", str(tmp_path / "smoothing")]) == 0

    def test_three_link_schema(self, tmp_path):
        import numpy as np
        from dataclasses import replace
        from routegame.dynamics import simulate as run, write_trajectory_csv
        from conftest import random_affine_config
        cfg = replace(random_affine_config(np.random.default_rng(0), 3), rounds=5)
        target = tmp_path / "n3.csv"
        write_trajectory_csv(target, run(cfg), cfg)
        with open(target) as fh:
            header = next(csv.reader(fh))
        assert header == ["k", "omega", "theta", "theta_hat", "e_theta", "u", "m",
                          "x_1", "x_2", "x_3", "xhat_1", "xhat_2", "xhat_3",
                          "y_1", "y_2", "y_3", "ell_1", "ell_2", "ell_3", "flow_gap"]

    def test_repeated_seed_writes_identical_files(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "60",
                   "--seed", "1", "--seed", "1", "--out", str(out)])
        assert rc == 0
        a = (out / "run000_seed1.csv").read_bytes()
        b = (out / "run001_seed1.csv").read_bytes()
        assert a == b

    def test_zero_rounds_is_usage_error(self, tmp_path, capsys):
        # the flag is written into the file's keys, so it fails as rounds: 0 in the file does
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {PAPER_CONFIG}: rounds must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    def test_scenario_flag_overrides_file(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "30",
                   "--scenario", "discounted=0.9", "--out", str(out)])
        assert rc == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["scenario"] == {"discounted": 0.9}

    @pytest.mark.parametrize("flag, resolved", [
        ("discounted=1e-3", {"discounted": 0.001}),
        ("dynamic-nu", "dynamic_nu"),
    ])
    def test_scenario_flag_forms(self, tmp_path, flag, resolved):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "5",
                   "--scenario", flag, "--out", str(out)])
        assert rc == 0
        assert yaml.safe_load((out / "resolved_config.yaml").read_text())["scenario"] == resolved

    def test_negative_discount_flag_reports_its_range(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "5",
                   "--scenario", "discounted=-0.5", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {PAPER_CONFIG}: discounted scenario needs a discount factor in (0, 1), "
            "got -0.5\n")

    def test_estimator_flag_overrides_file(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "30",
                   "--estimator", "luenberger=0.0", "--out", str(out)])
        assert rc == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["estimator"] == {"luenberger": [0.0, 0.0]}

    def test_envelope_columns(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "30",
                   "--seed", "5", "--out", str(out), "--emit-envelope"])
        assert rc == 0
        with open(out / "run000_seed5.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["e_lower", "e_upper"]
        e_theta = float(rows[1][4])
        assert float(rows[1][-2]) == e_theta and float(rows[1][-1]) == e_theta
        for row in rows[2:]:
            assert float(row[-2]) <= float(row[4]) <= float(row[-1])

    def test_envelope_needs_smoothing_estimator(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "10",
                   "--estimator", "luenberger=0.0", "--emit-envelope",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "smoothing" in capsys.readouterr().err

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        flagged = tmp_path / "flagged"
        forced = tmp_path / "forced"
        monkeypatch.setenv("ROUTEGAME_OUT", str(forced))
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "10",
                   "--out", str(flagged)])
        assert rc == 0
        assert forced.exists() and not flagged.exists()

    def test_smoothing_flag_keeps_file_beta(self, tmp_path):
        path = write_config(tmp_path, estimator={"luenberger": 0.0}, beta=0.6)
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(path), "--rounds", "5",
                   "--estimator", "smoothing", "--out", str(out)])
        assert rc == 0
        resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
        assert resolved["estimator"] == "smoothing"
        assert resolved["beta"] == 0.6

    def test_beta_list_writes_the_former_beta_schedule_bytes(self, tmp_path):
        # the sha256 that the same run wrote, with its envelope, when the list was given as
        # beta_schedule, the key that held a sequence of weights before beta took one
        weights = [round(0.35 + 0.05 * (k % 7), 2) for k in range(300)]
        path = tmp_path / "schedule.yaml"
        path.write_text(re.sub(r"(?m)^rounds: .*$", "rounds: 300", PAPER_CONFIG.read_text())
                        + f"beta: [{', '.join(map(str, weights))}]\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out),
                     "--emit-envelope"]) == 0
        assert hashlib.sha256((out / "run000_seed0.csv").read_bytes()).hexdigest() == (
            "eaac302da798b1de4896e591e371c9c14961ae07a4a5bc12d0bd93aa98dad85c")
        assert yaml.safe_load((out / "resolved_config.yaml").read_text())["beta"] == weights

    def test_rounds_flag_checked_against_beta_schedule(self, tmp_path):
        path = write_config(tmp_path, beta=[0.4, 0.5, 0.6, 0.5, 0.4])
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--rounds", "4",
                     "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(path), "--rounds", "6",
                     "--out", str(out)]) == 1

    def test_observer_warning_logged_once(self, tmp_path, caplog):
        with caplog.at_level(logging.WARNING, logger="routegame.model"):
            rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "5",
                       "--estimator", "luenberger=0.01", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert sum("stability unanalyzed" in r.getMessage() for r in caplog.records) == 1

    @pytest.mark.parametrize("flags, builds", [
        (["--rounds", "5"], 1),
        (["--rounds", "5", "--estimator", "luenberger=0.01"], 1),
        (["--rounds", "5", "--estimator", "luenberger=0.01", "--scenario", "dynamic-nu",
          "--seed", "1", "--seed", "2"], 3),
        (["--rounds", "5", "--seed", "0", "--seed", "0"], 1),
    ])
    def test_one_config_build_per_distinct_seed(self, tmp_path, monkeypatch, flags, builds):
        calls = []
        validate = GameConfig.__post_init__

        def counted(config):
            calls.append(config.seed)
            validate(config)

        monkeypatch.setattr(GameConfig, "__post_init__", counted)
        rc = main(["simulate", "--config", str(PAPER_CONFIG), *flags,
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(calls) == builds

    def test_negative_seed_exit_one(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "5", "--seed", "-1",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err

    def test_bad_later_seed_writes_nothing(self, tmp_path, capsys):
        # every seed is checked before the first artifact, so no run lacks a manifest
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--rounds", "5", "--seed", "1",
                   "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert "error: seed must be nonnegative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_label_exports_utf8_under_c_locale(self, tmp_path):
        config = write_config(tmp_path, states=["café", "omega2"], rounds=20)
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-m", "routegame.cli", "simulate", "--config",
                               str(config), "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        data = (tmp_path / "out" / "run000_seed0.csv").read_bytes()
        assert data.count(b"\r\n") == 21
        assert ",café,".encode() in data

    @pytest.mark.parametrize("rounds", [10**30, 2**60])
    def test_rounds_too_large_to_allocate_exit_one(self, tmp_path, capsys, rounds):
        # numpy rejects either size before it allocates anything
        rc = main(["simulate", "--config", str(write_config(tmp_path, rounds=rounds)),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: rounds = {rounds} is too many to allocate: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_estimator_flag_with_a_luenberger_prefix_exit_one(self, tmp_path, capsys):
        # a typo for luenberger=0.5 must not run the observer with gain 0
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--estimator", "luenberger0.5",
                   "--rounds", "5", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {PAPER_CONFIG}: unknown estimator 'luenberger0.5'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gain", ["nan", "inf"])
    def test_non_finite_observer_gain_exit_one(self, tmp_path, capsys, gain):
        rc = main(["simulate", "--config", str(PAPER_CONFIG), "--estimator", f"luenberger={gain}",
                   "--rounds", "5", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: {PAPER_CONFIG}: observer gain must be finite")
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_error_exit(self, tmp_path, capsys):
        rc = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestCheckObedienceCommand:
    def test_benchmark_signal_obedient(self, capsys):
        rc = main(["check-obedience", "--config", str(PAPER_CONFIG)])
        assert rc == 0
        assert "obedient" in capsys.readouterr().out

    def test_full_participation_obedient(self):
        assert main(["check-obedience", "--config", str(PAPER_CONFIG_NU1)]) == 0

    def test_worse_link_signal_exit_two(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            coeffs=[[[1.0, 2.0], [1.0, 2.0]], [[0.001, 0.001], [0.001, 0.001]]],
            signal=[[0.0, 0.5], [0.0, 0.5]],
            m_init=0.0,
            degree=None,
        )
        rc = main(["check-obedience", "--config", str(path)])
        assert rc == 2
        assert "NOT obedient" in capsys.readouterr().out

    def test_tolerance_defaults_to_solver_tol(self, tmp_path, capsys):
        path = write_config(tmp_path, solver_tol=1e-6)
        assert main(["check-obedience", "--config", str(path)]) == 0
        assert "(tol=1e-06)" in capsys.readouterr().out
        assert main(["check-obedience", "--config", str(path), "--tol", "1e-3"]) == 0
        assert "(tol=0.001)" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tolerance_exit_one(self, capsys, tol):
        # nan and -1 used to report "NOT obedient" and exit 2 on a config whose worst slacks are 0
        rc = main(["check-obedience", "--config", str(PAPER_CONFIG), f"--tol={tol}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: tol must be finite and nonnegative")

    def test_json_report(self, capsys):
        rc = main(["check-obedience", "--config", str(PAPER_CONFIG), "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["obedient"] is True
        assert report["y0"]["y"] == pytest.approx([0.5, 0.0], abs=1e-8)
        assert set(report["y0"]) == {"y", "theta", "vi_margin", "iterations"}
        assert len(report["obedience_slacks"]) == 2

    @pytest.mark.parametrize("field, value, message", [
        ("coeffs", [[[5, 25], [20]], [[4, 2], [1, 2]]], "error: latency coefficients must be"),
        ("signal", [[0.5, "x"], [0.0, 0.5]], "error: signal must be"),
        # numpy reads a YAML boolean in an array as 1.0 or 0.0
        ("signal", [[True, False], [False, True]], "signal must hold numbers, got a boolean"),
        ("coeffs", [[[5, 25], [20, 15]], [[4, 2], [True, 2]]],
         "latency coefficients must hold numbers, got a boolean"),
        ("prior", [0.6, True], "prior must hold numbers, got a boolean"),
        ("disobedience", [[False, True], [True, False]],
         "disobedience matrix must hold numbers, got a boolean"),
        ("beta", [0.5, True], "beta entry must be a number, got True"),
        # safe_dump writes &id001 [*id001]; the walk must not escape as a RecursionError
        ("disobedience", self_containing_list(),
         "disobedience matrix must be a rectangular array of numbers: maximum recursion depth"),
        # every latency strictly increases: a flat link, or a constant latency of degree 0
        ("coeffs", [[[5, 25], [20, 15]], [[4, 0], [1, 2]]],
         "error: latencies must strictly increase: some (state, link) has no positive "
         "coefficient of degree >= 1"),
        ("coeffs", [[[5, 25], [20, 15]]],
         "error: need at least one state and degree >= 1, got shape (1, 2, 2)"),
        # a string that spells no number stays a string, which no array holds
        ("prior", [0.6, "x"], "prior must be a rectangular array of numbers, got a string"),
        ("coeffs", [[[5, 25], [20, 15]], [[4, 2], [1, "2e"]]],
         "latency coefficients must be a rectangular array of numbers, got a string"),
    ])
    def test_malformed_array_exit_one(self, tmp_path, capsys, field, value, message):
        path = write_config(tmp_path, **{field: value})
        rc = main(["check-obedience", "--config", str(path)])
        assert rc == 1
        # the error line names the file once, ahead of the model type's message
        assert capsys.readouterr().err.startswith(
            f"error: {path}: {message.removeprefix('error: ')}")

    @pytest.mark.parametrize("field, value, message", [
        ("nu", "half", "nu must be a number, got 'half'"),
        ("rounds", "many", "rounds must be an integer, got 'many'"),
        ("estimator", {"luenberger": ["a", 0]}, "observer gain must be a number, got 'a'"),
        ("m_init", [1], "m_init must be a number, got [1]"),
        ("seed", [1], "seed must be an integer, got [1]"),
        ("states", 5, "states must be a list of labels, got 5"),
        ("estimator", "luenberger=a", "observer gain must be a number, got 'a'"),
        ("scenario", "discounted=a", "scenario discount must be a number, got 'a'"),
        # the two keys that took a YAML boolean are gone: their rules always hold
        ("allow_small_m_max", True, "unknown config keys ['allow_small_m_max']"),
        ("allow_small_m_max", False, "unknown config keys ['allow_small_m_max']"),
        ("strict_increase", True, "unknown config keys ['strict_increase']"),
        ("strict_increase", False, "unknown config keys ['strict_increase']"),
        ("m_max", 10, "m_max=10.0 below the safe default 51.0: it must bound the regret"),
        # float(True) is 1.0, but a YAML boolean is not a number
        ("rounds", True, "rounds must be an integer, got True"),
        ("seed", True, "seed must be an integer, got True"),
        ("nu", True, "nu must be a number, got True"),
        ("solver_tol", True, "solver_tol must be a number, got True"),
        ("theta_hat_init", True, "theta_hat_init must be a number, got True"),
        ("estimator", {"luenberger": True}, "observer gain must be a number, got True"),
        ("estimator", {"luenberger": [True, 0]}, "observer gain must be a number, got True"),
        ("scenario", {"discounted": False}, "scenario discount must be a number, got False"),
        # float() of an integer this large overflows
        ("m_max", 10**400, "m_max must be a number, got 1000"),
        # beta is a number or a list of numbers, not a string or a nested list
        ("beta", "x", "beta must be a number, got 'x'"),
        ("beta", [0.5, "x"], "beta entry must be a number, got 'x'"),
        ("beta", [[0.5], 0.5], "beta entry must be a number, got [0.5]"),
        # str() would make a label of any of these
        ("states", [None, [1, 2]], "states entries must be strings or numbers, got None"),
        ("states", ["omega1", [1, 2]], "states entries must be strings or numbers, got [1, 2]"),
        ("states", ["omega1", True], "states entries must be strings or numbers, got True"),
        ("states", [{"a": 1}, "omega2"],
         "states entries must be strings or numbers, got {'a': 1}"),
    ])
    def test_malformed_scalar_exit_one(self, tmp_path, capsys, field, value, message):
        path = write_config(tmp_path, **{field: value})
        rc = main(["check-obedience", "--config", str(path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err

    @pytest.mark.parametrize("smoothing, message", [
        # --estimator smoothing reads the pair, so the observer does not hide a bad one
        ({"beta": 0.2}, "smoothing weight 0.2 not strictly inside (0.3, 1)"),
        ({"beta": [0.8, 0.2]}, "smoothing weight 0.2 not strictly inside (0.3, 1)"),
        ({"beta": 0.8, "beta_min": 0.9}, "smoothing weight 0.8 not strictly inside (0.9, 1)"),
        ({"beta_min": 1.5}, "beta_min = 1.5 outside (0, 1)"),
    ])
    def test_malformed_smoothing_under_the_observer_exit_one(self, tmp_path, capsys, smoothing,
                                                             message):
        path = write_config(tmp_path, estimator={"luenberger": 0}, **smoothing)
        assert main(["check-obedience", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_null_beta_schedule_exit_one(self, tmp_path, capsys):
        # write_config drops a None value, so the null is written as text
        target = tmp_path / "config.yaml"
        for line, message in (("beta: null", "beta must be a number, got None"),
                              ("beta_schedule: null", "unknown config keys ['beta_schedule']")):
            target.write_text(PAPER_CONFIG.read_text() + line + "\n")
            rc = main(["check-obedience", "--config", str(target)])
            assert rc == 1
            assert capsys.readouterr().err == f"error: {target}: {message}\n"

    @pytest.mark.parametrize("key", sorted(cli._KEYS))
    def test_null_under_any_key_exit_one(self, tmp_path, capsys, key):
        # null is not a key left out: GameConfig alone would read m_max=None as its default
        raw = {**yaml.safe_load(PAPER_CONFIG.read_text()), key: None}
        target = tmp_path / "config.yaml"
        target.write_text(yaml.safe_dump(raw))
        assert main(["check-obedience", "--config", str(target)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {target}: ")

    def test_non_finite_prior_exit_one(self, tmp_path, capsys):
        path = write_config(tmp_path, prior=[float("nan"), 0.4])
        rc = main(["check-obedience", "--config", str(path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: prior must be finite")

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("not: [valid\n")
        rc = main(["check-obedience", "--config", str(bad)])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSharedParser:
    """``main`` builds its parser once per process, and no call carries state into the next."""

    def test_simulate_flags_do_not_carry_over(self, tmp_path, capsys):
        base = ["simulate", "--config", str(PAPER_CONFIG), "--rounds", "20"]
        swept, plain, fresh = tmp_path / "swept", tmp_path / "plain", tmp_path / "fresh"
        assert main([*base, "--seed", "1", "--seed", "2", "--emit-envelope",
                     "--out", str(swept)]) == 0
        assert sorted(p.name for p in swept.glob("*.csv")) == ["run000_seed1.csv",
                                                               "run001_seed2.csv"]
        assert main([*base, "--out", str(plain)]) == 0
        assert [p.name for p in plain.glob("*.csv")] == ["run000_seed0.csv"]
        with open(plain / "run000_seed0.csv") as fh:
            assert next(csv.reader(fh))[-1] == "flow_gap"
        # the same call, made first in a fresh process, writes the same bytes
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        env.pop("ROUTEGAME_OUT", None)
        done = subprocess.run([sys.executable, "-m", "routegame.cli", *base, "--out", str(fresh)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        for name in ("run000_seed0.csv", "resolved_config.yaml"):
            assert (plain / name).read_bytes() == (fresh / name).read_bytes()

        def manifest(out: Path) -> dict:
            data = json.loads((out / "manifest.json").read_text())
            for run in data["runs"]:
                del run["wall_clock_s"]
            return data
        assert manifest(plain) == manifest(fresh)

    def test_tolerance_flag_does_not_carry_over(self, tmp_path, capsys):
        path = write_config(tmp_path, solver_tol=1e-6)

        def reported_tol(*flags) -> float:
            assert main(["check-obedience", "--config", str(path), "--json", *flags]) == 0
            return json.loads(capsys.readouterr().out)["tol"]

        assert reported_tol("--tol", "0.5") == 0.5
        assert reported_tol() == 1e-6
        # a usage error exits from parse_args and leaves the shared parser as it was
        with pytest.raises(SystemExit) as info:
            main(["check-obedience", "--config", str(path), "--tol", "half"])
        assert info.value.code == 2
        assert reported_tol() == 1e-6
        assert reported_tol("--tol", "1e-3") == 1e-3

    def test_no_parser_built_after_the_first_call(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        per_call = []
        for _ in range(2):
            assert main(["check-obedience", "--config", str(PAPER_CONFIG)]) == 0
            per_call.append(len(built) - sum(per_call))
        assert per_call[1] == 0


# What a fuzzed key or array entry becomes: numbers at and past the edges of a
# float, YAML's other scalars, malformed lists, and flag-style strings.
FUZZ_VALUES = [0, -1, 2.5, 1e308, -1e308, math.nan, math.inf, -0.0, 1e-320, 10**30,
               True, None, "x", [], [[1.0, 2.0], [3.0]], self_containing_list(),
               "luenberger0.5", "dynamic-nu", {"discounted": 0.9}]
SHIPPED = {path.name: path.read_text() for path in (PAPER_CONFIG, PAPER_CONFIG_NU1)}


def shipped(name: str = "paper_affine.yaml", **changes) -> dict:
    return {**yaml.safe_load(SHIPPED[name]), **changes}


@st.composite
def fuzzed_configs(draw) -> dict:
    """A shipped config with one or two mutations.

    A mutation sets a key's value, sets one leaf of a key's nested lists, or
    adds an unknown key named by a string, an int or null.
    """
    raw = shipped(draw(st.sampled_from(sorted(SHIPPED))))
    for _ in range(draw(st.integers(1, 2))):
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        how = draw(st.sampled_from(["value", "leaf", "unknown key"]))
        if how == "unknown key":
            raw[draw(st.sampled_from(["foo", 7, None]))] = value
            continue
        key = draw(st.sampled_from(list(cli._KEYS)))
        node = raw.get(key)
        if how == "value" or not isinstance(node, list) or not node:
            raw[key] = value
            continue
        while True:
            i = draw(st.integers(0, len(node) - 1))
            if not isinstance(node[i], list) or not node[i] or node[i] is node:
                node[i] = value
                break
            node = node[i]
    return raw


class TestFuzzedConfigs:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(raw=fuzzed_configs())
    @example(raw=shipped(coeffs=[[[1e308, 25], [20, 15]], [[4, 2], [1, 2]]]))
    @example(raw=shipped(disobedience=self_containing_list()))
    @example(raw={**shipped(), 1: "a", "foo": "b"})
    @example(raw=shipped(estimator="luenberger0.5"))
    def test_config_builds_runs_and_round_trips_or_is_rejected(self, raw):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = Path(tmp) / "config.yaml"
            path.write_text(yaml.safe_dump(raw, sort_keys=False))
            try:
                config = load_config(path)
            except ConfigurationError:
                return
            simulate(replace(config, rounds=min(config.rounds, 20)))
            check_obedience(config)
            path.write_text(yaml.dump(config_to_dict(config), Dumper=cli._Dumper, sort_keys=False))
            again = load_config(path)
        assert config_to_dict(again) == config_to_dict(config)
        assert config_digest(again) == config_digest(config)

    @pytest.mark.parametrize("changes", [{}, {"estimator": {"luenberger": 0.0}},
                                         {"beta": [0.5] * 5, "rounds": 5}])
    def test_resolved_keys_are_config_keys(self, tmp_path, changes):
        resolved = config_to_dict(load_config(write_config(tmp_path, **changes)))
        assert set(resolved) <= set(cli._KEYS)
