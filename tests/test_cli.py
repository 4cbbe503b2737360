"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.network == "tcp-gige"
        assert args.ranks == 4
        assert args.cpus_per_node == 1

    def test_figures_flags(self):
        args = build_parser().parse_args(["figures", "--all", "--steps", "3"])
        assert args.all and args.steps == 3

    def test_campaign_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_campaign_run_defaults(self):
        args = build_parser().parse_args(["campaign", "run"])
        assert args.campaign_command == "run"
        assert args.store == ".repro-cache"
        assert args.workload == "myoglobin-pme"
        assert args.design == "sweep"
        assert args.ranks == "1,2,4,8"
        assert args.workers == 0
        assert not args.sanitize_run


class TestCommands:
    def test_figures_listing(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "figure3" in out and "figure9" in out

    def test_unknown_figure_errors(self, capsys):
        assert main(["figures", "figure42"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_workload_description(self, capsys):
        assert main(["workload"]) == 0
        out = capsys.readouterr().out
        assert "3552" in out
        assert "80 x 36 x 48" in out

    def test_bad_run_config_errors(self, capsys):
        assert main(["run", "--network", "infiniband"]) == 2
        assert "error" in capsys.readouterr().err

    def test_analyze_static_reports_each_finding_once(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        hazard = tmp_path / "repro" / "mpi" / "hazard.py"
        hazard.parent.mkdir(parents=True)
        hazard.write_text("x = np.random.rand()\nt = time.time()\n")
        assert main(["analyze", "--static", "--bound", "2", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        rules = [line.split()[1] for line in out.splitlines() if ": REP" in line]
        assert sorted(rules) == ["REP100", "REP103", "REP104"]
        assert "linted 2 files" in out and ": 3 error(s)" in out
        assert "determinism lint: 0 error(s)" in out

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_analyze_bound_below_one_errors_before_any_work(self, tmp_path, capsys, bound):
        assert main(["analyze", "--static", "--bound", bound, str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: bound must be >= 1\n"

    def test_analyze_sarif_to_an_unwritable_path_errors_before_any_work(self, tmp_path, capsys):
        sarif = tmp_path / "missing" / "findings.sarif"
        assert main(["analyze", "--static", "--sarif", str(sarif), str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write SARIF to {sarif}\n"
        assert not sarif.parent.exists()

    @pytest.mark.parametrize("verb", ["run", "trace"])
    def test_steps_below_one_errors_before_any_work(self, tmp_path, capsys, verb):
        output = tmp_path / "trace.json"
        args = [verb, "--steps", "0"] + (["-o", str(output)] if verb == "trace" else [])
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: n_steps must be >= 1\n"
        assert not output.exists()

    def test_figures_steps_below_one_errors_before_any_work(self, capsys):
        assert main(["figures", "figure3", "--steps", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: n_steps must be >= 1\n"

    @pytest.mark.parametrize("verb", ["run", "trace"])
    def test_negative_seed_errors_before_any_work(self, tmp_path, capsys, verb):
        output = tmp_path / "trace.json"
        args = [verb, "--seed", "-1"] + (["-o", str(output)] if verb == "trace" else [])
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: seed must be >= 0, got -1\n"
        assert not output.exists()

    def test_run_small_point(self, capsys):
        assert main(["run", "--ranks", "2", "--steps", "1", "--network", "myrinet"]) == 0
        out = capsys.readouterr().out
        assert "myrinet" in out
        assert "comp %" in out


class TestCampaignCommand:
    def _args(self, tmp_path, *extra):
        return [
            "--store", str(tmp_path / "cache"),
            "--workload", "peptide-tiny",
            "--steps", "2",
            *extra,
        ]

    def test_run_status_verify_gc_cycle(self, tmp_path, capsys):
        run_args = ["campaign", "run", *self._args(tmp_path, "--ranks", "1,2")]
        assert main(run_args) == 0
        out = capsys.readouterr().out
        assert "2 ran" in out and "0 failed" in out

        # warm re-run: everything is a cache hit
        assert main(run_args) == 0
        assert "2 hit, 0 ran" in capsys.readouterr().out

        assert main(["campaign", "status", "--store", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "campaign" in out  # the manifest summary line

        assert main(["campaign", "verify", *self._args(tmp_path, "--sample", "1")]) == 0
        assert "bit-identically: ok" in capsys.readouterr().out

        assert main(["campaign", "gc", "--store", str(tmp_path / "cache")]) == 0
        assert "kept 2" in capsys.readouterr().out

    def test_run_bad_ranks_errors(self, tmp_path, capsys):
        assert main(["campaign", "run", *self._args(tmp_path, "--ranks", "one,two")]) == 2
        assert "bad --ranks" in capsys.readouterr().err

    def test_run_unknown_workload_errors(self, tmp_path, capsys):
        args = [
            "campaign", "run", "--store", str(tmp_path / "cache"),
            "--workload", "nope", "--ranks", "1",
        ]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: unknown workload 'nope'")
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("verb", ["run", "serve"])
    def test_spatial_on_a_pme_workload_errors_before_the_store(self, tmp_path, capsys, verb):
        args = [
            "campaign", verb, *self._args(tmp_path, "--strategy", "spatial", "--ranks", "2")
        ]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: --strategy spatial needs a cutoff-only workload; peptide-tiny uses PME\n"
        )
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("verb", ["run", "serve"])
    def test_zero_ranks_errors_before_the_store(self, tmp_path, capsys, verb):
        args = ["campaign", verb, *self._args(tmp_path, "--ranks", "2,0")]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: ranks must be >= 1, got 0\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("design", ["sweep", "full", "paper"])
    def test_run_zero_replicates_errors_before_the_store(self, tmp_path, capsys, design):
        args = ["campaign", "run", *self._args(tmp_path, "--design", design, "--replicates", "0")]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: replicates must be >= 1\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "-1", "seed must be >= 0, got -1"),
            ("--retries", "-1", "retries must be >= 0, got -1"),
            ("--timeout", "-5", "timeout must be > 0 seconds, got -5.0"),
            ("--timeout", "0", "timeout must be > 0 seconds, got 0.0"),
            ("--workers", "-1", "n_workers must be >= 0, got -1"),
        ],
    )
    def test_run_bad_setting_errors_before_the_store(
        self, tmp_path, capsys, flag, value, message
    ):
        args = ["campaign", "run", *self._args(tmp_path, "--ranks", "1", flag, value)]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("verb", ["verify", "status", "gc"])
    def test_missing_store_errors_without_creating_it(self, tmp_path, capsys, verb):
        missing = tmp_path / "none"
        assert main(["campaign", verb, "--store", str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: store directory {missing} does not exist\n"
        assert not missing.exists()

    def test_analyze_into_a_missing_directory_errors(self, tmp_path, capsys):
        assert main(["campaign", "run", *self._args(tmp_path, "--ranks", "1")]) == 0
        capsys.readouterr()
        target = tmp_path / "nonexistent" / "dir" / "x.md"
        code = main([
            "campaign", "analyze", "report", "--store", str(tmp_path / "cache"),
            "--format", "md", "-o", str(target),
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    def test_merge_checks_its_sources_before_opening_the_store(self, tmp_path, capsys):
        dest = tmp_path / "D"
        missing = tmp_path / "no-such-worker"
        assert main(["campaign", "merge", "--store", str(dest), str(missing)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: merge source {missing} does not exist\n"
        assert not dest.exists()

    def test_verify_unknown_workload_errors(self, tmp_path, capsys):
        (tmp_path / "cache").mkdir()
        args = ["campaign", "verify", "--store", str(tmp_path / "cache"), "--workload", "nope"]
        assert main(args) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_verify_with_nothing_addressable_errors(self, tmp_path, capsys):
        assert main(["campaign", "run", *self._args(tmp_path, "--ranks", "1")]) == 0
        capsys.readouterr()
        verify = [
            "campaign", "verify", "--store", str(tmp_path / "cache"),
            "--workload", "peptide-tiny", "--steps", "3",  # the store holds 2-step runs
        ]
        assert main(verify) == 2
        assert "no stored entry is addressable" in capsys.readouterr().err

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_verify_sample_below_one_errors(self, tmp_path, capsys, sample):
        """Rather than passing with nothing re-run (0), or failing inside
        numpy (-1)."""
        assert main(["campaign", "run", *self._args(tmp_path, "--ranks", "1")]) == 0
        capsys.readouterr()
        assert main(["campaign", "verify", *self._args(tmp_path, "--sample", sample)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: sample must be >= 1, got {sample}\n"

    def test_failed_point_returns_nonzero(self, tmp_path, capsys):
        # 32 uni-CPU ranks exceed the 16-node cluster: the point fails
        args = ["campaign", "run", *self._args(tmp_path, "--ranks", "1,32", "--retries", "0")]
        assert main(args) == 1
        assert "1 failed" in capsys.readouterr().out


class TestBoardCommands:
    def test_coordinator_parser_defaults(self):
        args = build_parser().parse_args(["campaign", "coordinator"])
        assert args.campaign_command == "coordinator"
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.state == "coordinator-board.json"

    def test_work_without_any_board_errors(self, tmp_path, capsys):
        code = main(["campaign", "work", "--store", str(tmp_path / "s")])
        assert code == 2
        assert "--board" in capsys.readouterr().err

    def test_serve_and_work_through_a_board_url(self, tmp_path, capsys):
        """The one-URL backend selection: ``--board file:PATH`` drives a
        whole serve/work/merge cycle over the shared-filesystem board."""
        board = f"file:{tmp_path / 'leases.json'}"
        common = ["--workload", "peptide-tiny", "--steps", "2"]
        code = main([
            "campaign", "serve", "--store", str(tmp_path / "serve"),
            *common, "--ranks", "1", "--board", board,
        ])
        assert code == 0
        assert "published 1 leases" in capsys.readouterr().out

        code = main([
            "campaign", "work", "--store", str(tmp_path / "worker"),
            "--board", board, "--worker", "cli-w",
        ])
        assert code == 0
        assert "claimed 1 (1 executed" in capsys.readouterr().out

    def test_work_on_a_lease_this_build_disagrees_with(self, tmp_path, capsys):
        """A lease whose key is not this build's key for its point: one
        error line, exit 2, and the lease goes back to the board."""
        path = tmp_path / "leases.json"
        code = main([
            "campaign", "serve", "--store", str(tmp_path / "serve"),
            "--workload", "peptide-tiny", "--steps", "2", "--ranks", "1",
            "--board", f"file:{path}",
        ])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        doc["leases"][0]["key"] = "f" * 64
        path.write_text(json.dumps(doc))

        code = main([
            "campaign", "work", "--store", str(tmp_path / "worker"),
            "--board", f"file:{path}", "--worker", "cli-w",
        ])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: lease ffffffffffff… does not match this build's key ")
        assert err.count("\n") == 1
        assert json.loads(path.read_text())["leases"][0]["state"] == "pending"

    def test_status_with_board_prints_board_view_without_watch(
        self, tmp_path, capsys
    ):
        board = f"file:{tmp_path / 'leases.json'}"
        code = main([
            "campaign", "serve", "--store", str(tmp_path / "serve"),
            "--workload", "peptide-tiny", "--steps", "2",
            "--ranks", "1,2", "--board", board,
        ])
        assert code == 0
        capsys.readouterr()

        code = main([
            "campaign", "status", "--store", str(tmp_path / "serve"),
            "--board", board,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0/2 done" in out and "2 pending" in out

    def test_status_shows_the_board_of_a_store_holding_leases(self, tmp_path, capsys):
        store = tmp_path / "serve"
        code = main([
            "campaign", "serve", "--store", str(store),
            "--workload", "peptide-tiny", "--steps", "2", "--ranks", "1,2",
        ])
        assert code == 0 and (store / "leases.json").exists()
        capsys.readouterr()

        assert main(["campaign", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"store {store}: 0 entries")
        assert "0/2 done" in out and "2 pending" in out

        (store / "leases.json").unlink()
        assert main(["campaign", "status", "--store", str(store)]) == 0
        assert "pending" not in capsys.readouterr().out

    def test_status_on_a_bad_board_url_errors_cleanly(self, tmp_path, capsys):
        """A malformed ``--board``: one error line, nothing on stdout, exit 2,
        as ``serve`` and ``work`` answer the same input."""
        store = tmp_path / "s"
        store.mkdir()
        code = main(["campaign", "status", "--store", str(store), "--board", "file:"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: empty path in 'file:' board URL\n"

    def test_work_against_an_unreachable_coordinator_errors_cleanly(
        self, tmp_path, capsys
    ):
        code = main([
            "campaign", "work", "--store", str(tmp_path / "s"),
            "--board", "http://127.0.0.1:1",  # nothing listens on port 1
        ])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err
