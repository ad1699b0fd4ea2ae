"""The shared CLI flag contract (:mod:`repro.cli`).

``python -m repro.experiments``, ``python -m repro.fleet``, and
``python -m repro.serve`` must accept the identical core execution flag
set — :data:`repro.cli.CORE_FLAGS` — with the same types and defaults.
These flags drifted apart once (three hand-rolled ``--jobs`` copies);
this test makes the drift a failure instead of a code review hazard.
The same holds for the fleet-spec flag group
(:data:`repro.cli.SPEC_FLAGS`) shared by ``python -m repro.fleet`` and
``python -m repro.trace store build``.
"""

import argparse

import pytest

from repro.cli import CORE_FLAGS, SPEC_FLAGS, add_core_flags, jobs_from_args

import repro.experiments.__main__ as experiments_main
import repro.fleet.__main__ as fleet_main
import repro.serve.__main__ as serve_main
import repro.trace.__main__ as trace_main

PARSERS = {
    "experiments": experiments_main.build_parser,
    "fleet": fleet_main.build_parser,
    "serve": serve_main.build_parser,
}


def subparser(parser: argparse.ArgumentParser, *path: str) -> argparse.ArgumentParser:
    for name in path:
        (action,) = [a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
        parser = action.choices[name]
    return parser


#: The parsers that turn the spec flags into a FleetSpec.
SPEC_PARSERS = {
    "fleet": fleet_main.build_parser,
    "trace store build": lambda: subparser(
        trace_main.build_parser(), "store", "build"
    ),
}


def option_strings(parser: argparse.ArgumentParser) -> set:
    return {opt for action in parser._actions for opt in action.option_strings}


def action_for(parser: argparse.ArgumentParser, flag: str) -> argparse.Action:
    for action in parser._actions:
        if flag in action.option_strings:
            return action
    raise AssertionError(f"{flag} not found")


class TestCoreFlagUniformity:
    @pytest.mark.parametrize("name", sorted(PARSERS))
    def test_parser_accepts_every_core_flag(self, name):
        missing = CORE_FLAGS - option_strings(PARSERS[name]())
        assert not missing, f"{name} CLI is missing core flags: {sorted(missing)}"

    @pytest.mark.parametrize("flag", sorted(CORE_FLAGS))
    def test_flag_semantics_match_across_parsers(self, flag):
        actions = {name: action_for(build(), flag)
                   for name, build in PARSERS.items()}
        kinds = {name: type(a).__name__ for name, a in actions.items()}
        assert len(set(kinds.values())) == 1, kinds
        defaults = {name: a.default for name, a in actions.items()}
        assert len({repr(d) for d in defaults.values()}) == 1, defaults
        choices = {name: a.choices for name, a in actions.items()}
        assert len({repr(c) for c in choices.values()}) == 1, choices

    def test_kernel_choices_are_the_shared_triple(self):
        for name, build in PARSERS.items():
            assert tuple(action_for(build(), "--kernel").choices) == \
                ("auto", "scalar", "vector"), name


class TestSpecFlagUniformity:
    @pytest.mark.parametrize("name", sorted(SPEC_PARSERS))
    def test_parser_accepts_every_spec_flag(self, name):
        missing = SPEC_FLAGS - option_strings(SPEC_PARSERS[name]())
        assert not missing, f"{name} CLI is missing spec flags: {sorted(missing)}"

    @pytest.mark.parametrize("flag", sorted(SPEC_FLAGS))
    def test_flag_types_and_defaults_match(self, flag):
        actions = {name: action_for(build(), flag)
                   for name, build in SPEC_PARSERS.items()}
        types = {name: a.type for name, a in actions.items()}
        assert len(set(types.values())) == 1, types
        defaults = {name: a.default for name, a in actions.items()}
        assert len({repr(d) for d in defaults.values()}) == 1, defaults

    def test_both_clis_build_the_same_spec(self):
        flags = ["--devices", "6", "--seed", "4", "--name", "x", "--events",
                 "7", "--policies", "NA,QZ", "--environments", "crowded",
                 "--mcus", "apollo4", "--cells", "4,6", "--buffer", "0"]
        from repro.cli import spec_from_args

        fleet = spec_from_args(fleet_main.build_parser().parse_args(flags))
        store = spec_from_args(
            trace_main.build_parser().parse_args(["store", "build", "d", *flags])
        )
        assert fleet == store
        assert fleet.buffer_capacity is None and fleet.cells == (4, 6)

    def test_store_build_still_requires_devices(self):
        with pytest.raises(SystemExit):
            trace_main.build_parser().parse_args(["store", "build", "d"])


class TestJobsResolution:
    def _parser(self):
        parser = argparse.ArgumentParser()
        add_core_flags(parser)
        return parser

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("BENCH_JOBS", raising=False)
        parser = self._parser()
        args = parser.parse_args([])
        assert jobs_from_args(args, parser) == 1

    def test_bench_jobs_env_sets_default(self, monkeypatch):
        monkeypatch.setenv("BENCH_JOBS", "3")
        parser = self._parser()
        args = parser.parse_args([])
        assert jobs_from_args(args, parser) == 3

    def test_profile_forces_serial(self):
        parser = self._parser()
        args = parser.parse_args(["--jobs", "8", "--profile"])
        assert jobs_from_args(args, parser) == 1

    def test_negative_jobs_is_an_argparse_error(self):
        parser = self._parser()
        args = parser.parse_args(["--jobs", "-2"])
        with pytest.raises(SystemExit):
            jobs_from_args(args, parser)


class TestPerCliWiring:
    def test_experiments_rejects_vector_kernel(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main.main(["--kernel", "vector"])
        assert "scalar" in capsys.readouterr().err

    def test_fleet_accepts_vector_kernel(self, tmp_path, capsys):
        assert fleet_main.main([
            "--devices", "4", "--events", "10", "--kernel", "vector", "--quiet",
        ]) == 0
