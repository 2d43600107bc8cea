"""Tests for report rendering and the command-line interface."""

import pytest

from repro.cli import build_parser, main, run_command
from repro.experiments import report
from repro.experiments.matrix import ReplayMatrix
from repro.experiments.scale import ExperimentScale
from repro.experiments.table1 import run_table1

_FAST = ExperimentScale(name="cli-test", num_blocks=256, num_accesses=512)


class TestFormatting:
    def test_format_table_aligns_columns(self):
        text = report.format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_figure7(self):
        text = report.render_figure7(ReplayMatrix(_FAST), "7e")
        assert "PathORAM" in text
        assert "Fat/S8" in text
        assert "x" in text

    def test_render_figure8(self):
        text = report.render_figure8(ReplayMatrix(_FAST))
        assert "Normal-4" in text

    def test_render_figure9(self):
        text = report.render_figure9(ReplayMatrix(_FAST))
        assert "upper bound" in text

    def test_render_table1(self):
        text = report.render_table1(run_table1())
        assert "8M" in text
        assert "GiB" in text

    def test_render_table2(self):
        text = report.render_table2(ReplayMatrix(_FAST))
        assert "permutation" in text

    def test_render_memory_neutral(self):
        text = report.render_memory_neutral(ReplayMatrix(_FAST))
        assert "memory saving" in text


class TestCLI:
    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out

    def test_figure2_command(self, capsys):
        assert main(["figure2", "--accesses", "2000"]) == 0
        assert "hot band" in capsys.readouterr().out

    def test_figure7_command_tiny(self, capsys):
        assert main(["figure7", "--subfigure", "7e", "--scale", "tiny"]) == 0
        assert "speedups over PathORAM" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["figure2", "--accesses", "0"], "num_accesses must be >= 1"),
        (["sharded", "--num-blocks", "4", "--num-shards", "8", "--num-accesses", "10"],
         "4 blocks cannot fill 8 shards"),
        (["serve", "--requests", "0"], "num_requests must be >= 1"),
    ])
    def test_a_bad_argument_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "laoram-repro: error: " in err and message in err
        assert "Traceback" not in err

    def test_run_command_rejects_unknown(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        args.command = "bogus"
        with pytest.raises(ValueError):
            run_command(args)

    def test_sharded_and_serve_take_the_two_families_only(self, capsys):
        for family in ("pathoram", "laoram"):
            assert main([
                "sharded", "--family", family,
                "--num-blocks", "4096", "--num-accesses", "2000",
            ]) == 0
            assert f"({family}, sequential in-process)" in capsys.readouterr().out
            assert main([
                "serve", "--family", family,
                "--num-blocks", "4096", "--requests", "50",
            ]) == 0
            assert f"({family}, 4 shards, " in capsys.readouterr().out
        for family in ("ringoram", "proram"):
            for command, size in (("sharded", "--num-accesses"), ("serve", "--requests")):
                with pytest.raises(SystemExit) as exited:
                    main([command, "--family", family, "--num-blocks", "4096", size, "50"])
                assert exited.value.code == 2
                assert "invalid choice" in capsys.readouterr().err
