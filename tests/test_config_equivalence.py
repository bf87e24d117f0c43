"""A --config value means what the same value given as a flag means.

The options come from ``build_parser`` itself, so an option added later is
covered without a list kept here.
"""

import argparse
import json

import pytest
from hypothesis import given, settings, strategies as st

from rcakit import cli, scoring, simulation


def subcommands():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def options(sub):
    return [a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")]


def base_argv(name, sub):
    """The subcommand with its positionals and required options filled in."""
    argv = [name]
    for action in sub._actions:
        if not action.option_strings:
            argv.append("x")
        elif action.required:
            argv.append(f"{action.option_strings[0]}=1")
    return argv


def config_values(action):
    """Valid JSON values of ``action``; a new kind of option must be added here."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return st.booleans()
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is cli._scorer_list:
        return st.lists(st.sampled_from(scoring.SCORER_NAMES), min_size=1, max_size=4)
    if action.type is int:
        return st.integers()
    if action.type is cli._positive:
        return st.integers(min_value=1)
    if action.type is cli._non_negative:
        return st.integers(min_value=0)
    if action.type is float:
        return st.floats(allow_nan=False)
    if action.type is cli._finite:
        return st.floats(allow_nan=False, allow_infinity=False)
    if action.type is cli._rate:
        return st.floats(min_value=0, max_value=simulation.MAX_POISSON_RATE)
    assert action.type is None, f"no config values for {action.option_strings}"
    return st.text(st.characters(exclude_categories=("Cs",)), max_size=12)


def flag_tokens(action, value):
    """``value`` spelled on the command line."""
    if isinstance(action, argparse.BooleanOptionalAction):
        return [action.option_strings[0 if value else 1]]
    if isinstance(value, list):
        value = ",".join(value)
    return [f"{action.option_strings[0]}={value}"]


OPTIONS = [(name, action) for name, sub in subcommands().items() for action in options(sub)]


def assert_config_matches_flags(tmp_path, name, chosen):
    """``chosen``, a list of (action, value), given as a config file and as
    flags right after the subcommand, parses to the same namespace; a None
    value is a JSON null, which stands for no flag."""
    base = base_argv(name, subcommands()[name])
    path = tmp_path / "config.json"
    path.write_text(json.dumps({action.dest: value for action, value in chosen}))
    via_config = vars(cli.parse_args(base + ["--config", str(path)]))
    flags = [token for action, value in chosen if value is not None
             for token in flag_tokens(action, value)]
    via_flags = vars(cli.parse_args(base[:1] + flags + base[1:]))
    assert via_config.pop("config") == str(path)
    assert via_flags.pop("config") is None
    assert via_config == via_flags


def values_or_null(action):
    return st.one_of(st.none(), config_values(action))


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


@pytest.mark.parametrize("name, action", OPTIONS,
                         ids=[f"{name}{action.option_strings[0]}" for name, action in OPTIONS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_value_equals_flag(config_dir, name, action, data):
    assert_config_matches_flags(config_dir, name, [(action, data.draw(values_or_null(action)))])


@pytest.mark.parametrize("name", sorted(subcommands()))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_config_of_many_options_equals_flags(config_dir, name, data):
    actions = options(subcommands()[name])
    chosen = data.draw(st.lists(st.sampled_from(actions), unique_by=lambda a: a.dest))
    assert_config_matches_flags(config_dir, name,
                                [(a, data.draw(values_or_null(a))) for a in chosen])


def test_every_subcommand_has_options():
    # a control: the properties above would pass vacuously on an empty parser
    assert {name for name, _ in OPTIONS} == {"simulate", "graph", "analyze", "evaluate"}
    assert len(OPTIONS) >= 25
