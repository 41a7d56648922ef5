"""Tests for the command-line interface."""

import os
import re

import pytest

from repro.cli import build_parser, main
from repro.core.baseline import rknnt_bruteforce
from repro.core.rknnt import RkNNTProcessor
from repro.data.gtfs import save_routes_csv, save_transitions_csv
from repro.engine.server import RkNNTServer
from repro.model.dataset import TransitionDataset
from repro.model.transition import Transition


@pytest.fixture
def data_dir(tmp_path, toy_routes, toy_transitions):
    save_routes_csv(toy_routes, os.path.join(tmp_path, "routes.csv"))
    save_transitions_csv(toy_transitions, os.path.join(tmp_path, "transitions.csv"))
    return str(tmp_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_arguments(self):
        args = build_parser().parse_args(
            ["generate", "--preset", "mini", "--output-dir", "/tmp/x", "--scale", "0.5"]
        )
        assert args.command == "generate"
        assert args.preset == "mini"
        assert args.scale == 0.5

    def test_query_points_accumulate(self):
        args = build_parser().parse_args(
            [
                "query",
                "--data-dir",
                "/tmp/x",
                "--point",
                "1",
                "2",
                "--point",
                "3",
                "4",
            ]
        )
        assert args.points == [[1.0, 2.0], [3.0, 4.0]]

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--data-dir", "/tmp/x", "--point", "1", "2", "--method", "x"]
            )


class TestGenerate:
    def test_generate_writes_csv(self, tmp_path, capsys):
        output = os.path.join(tmp_path, "city")
        assert main(["generate", "--preset", "mini", "--output-dir", output]) == 0
        assert os.path.exists(os.path.join(output, "routes.csv"))
        assert os.path.exists(os.path.join(output, "transitions.csv"))
        out = capsys.readouterr().out
        assert "routes" in out and "transitions" in out


class TestQuery:
    def test_query_prints_results(self, data_dir, capsys):
        code = main(
            [
                "query",
                "--data-dir",
                data_dir,
                "--k",
                "2",
                "--point",
                "0",
                "2",
                "--point",
                "8",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RkNNT(" in out
        assert "transitions" in out

    def test_query_forall_semantics(self, data_dir, capsys):
        assert (
            main(
                [
                    "query",
                    "--data-dir",
                    data_dir,
                    "--k",
                    "4",
                    "--semantics",
                    "forall",
                    "--point",
                    "4",
                    "2",
                ]
            )
            == 0
        )
        assert "forall" in capsys.readouterr().out

    def test_batch_file_with_workers(self, data_dir, tmp_path, capsys):
        batch = tmp_path / "queries.txt"
        batch.write_text("0 2 8 2\n4 2\n# comment\n\n1 0.5 7 0.5\n")
        assert (
            main(
                [
                    "query",
                    "--data-dir",
                    data_dir,
                    "--k",
                    "2",
                    "--batch-file",
                    str(batch),
                ]
            )
            == 0
        )
        serial_out = capsys.readouterr().out
        assert (
            main(
                [
                    "query",
                    "--data-dir",
                    data_dir,
                    "--k",
                    "2",
                    "--batch-file",
                    str(batch),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        sharded_out = capsys.readouterr().out
        assert "workers=2" in sharded_out
        # Same workload, same matched-transition total on both paths.
        matched = [
            line.split("total", 1)[1]
            for line in serial_out.splitlines()
            if "transitions matched" in line
        ]
        sharded_matched = [
            line.split("total", 1)[1]
            for line in sharded_out.splitlines()
            if "transitions matched" in line
        ]
        assert matched[0].split(",")[-1] == sharded_matched[0].split(",")[-1]

    def test_workers_require_batch_file(self, data_dir):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--data-dir",
                    data_dir,
                    "--point",
                    "0",
                    "2",
                    "--workers",
                    "2",
                ]
            )

    def test_missing_data_dir_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "query",
                    "--data-dir",
                    str(tmp_path),
                    "--point",
                    "0",
                    "0",
                ]
            )


class TestCapacity:
    def test_capacity_table(self, data_dir, capsys):
        assert main(["capacity", "--data-dir", data_dir, "--k", "2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "estimated demand" in out
        assert "riders_exists" in out


class TestPlan:
    def test_plan_between_connected_stops(self, data_dir, capsys):
        # Vertices 0 and 4 are the endpoints of route 0 in the toy network
        # (from_routes numbers stops in insertion order).
        code = main(
            [
                "plan",
                "--data-dir",
                data_dir,
                "--k",
                "2",
                "--start",
                "0",
                "--end",
                "4",
                "--ratio",
                "1.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "passengers" in out
        assert "stops:" in out

    def test_plan_unreachable_errors(self, data_dir):
        # Route 2 (y = 8) is disconnected from route 0 in the toy network.
        with pytest.raises(SystemExit):
            main(
                [
                    "plan",
                    "--data-dir",
                    data_dir,
                    "--start",
                    "0",
                    "--end",
                    "10",
                ]
            )

    def test_plan_unknown_vertex_errors(self, data_dir):
        with pytest.raises(SystemExit):
            main(
                ["plan", "--data-dir", data_dir, "--start", "0", "--end", "9999"]
            )


class TestServe:
    def _run(self, data_dir, stream_path, *extra):
        return main(
            ["serve", "--data-dir", data_dir, "--input", str(stream_path)]
            + list(extra)
        )

    def test_serve_answers_a_clean_stream(self, data_dir, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_text("1.0 0.3 7.0 0.2\n1.0 4.2\n")
        assert self._run(data_dir, stream) == 0
        out = capsys.readouterr().out
        assert "served 2 queries" in out
        assert "rejected" not in out

    def test_malformed_lines_rejected_serving_continues(
        self, data_dir, tmp_path, capsys
    ):
        """Satellite 2: every malformed stream line — odd coordinates,
        non-numeric fields, duplicate insert, unknown delete — is rejected
        with a typed warning while the well-formed rest still serves."""
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "1.0 0.3 7.0 0.2\n"      # good query
            "1.0 2.0 3.0\n"          # odd coordinate count
            "1.0 fast\n"             # non-numeric coordinate
            "+ 0 1.0 1.0 2.0 2.0\n"  # duplicate insert (id 0 exists)
            "- 424242\n"             # unknown delete
            "+ 9000 one 1.0 2.0 2.0\n"  # non-numeric update field
            "+ 9001 1.0 0.4 6.5 0.1\n"  # good insert
            "1.0 4.2\n"              # good query, post-update
        )
        assert self._run(data_dir, stream) == 0
        captured = capsys.readouterr()
        assert "served 2 queries" in captured.out
        assert "1 updates applied" in captured.out
        assert "rejected 5 malformed lines" in captured.out
        assert captured.err.count("rejected line") == 5
        assert "already present" in captured.err
        assert "not in dataset" in captured.err
        assert "non-numeric field" in captured.err
        assert "non-numeric coordinate" in captured.err
        assert "even number of coordinates" in captured.err

    def test_stream_of_only_garbage_is_an_error(self, data_dir, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text("nope\n@ bad op\n")
        with pytest.raises(SystemExit):
            self._run(data_dir, stream)

    def test_generous_deadline_serves_normally(self, data_dir, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_text("1.0 0.3 7.0 0.2\n")
        assert self._run(data_dir, stream, "--deadline-ms", "60000") == 0
        out = capsys.readouterr().out
        assert "served 1 queries" in out
        assert "dropped" not in out

    def test_missed_deadline_drops_the_batch(self, data_dir, tmp_path, capsys):
        stream = tmp_path / "stream.txt"
        stream.write_text("1.0 0.3 7.0 0.2\n1.0 4.2\n")
        assert self._run(data_dir, stream, "--deadline-ms", "0.000001") == 0
        captured = capsys.readouterr()
        assert "served 0 queries" in captured.out
        assert "dropped 2 queries in 1 batches" in captured.out
        # One typed warning per dropped query, naming its line.
        assert captured.err.count("query dropped") == 2
        assert "stream.txt:2: query dropped" in captured.err


    STREAM = (
        "1.0 0.3 7.0 0.2\n"          # read on the packed data
        "4.0 4.1\n"
        "+ 9001 1.0 0.4 6.5 0.1\n"   # hugs route 0
        "1.0 0.3 7.0 0.2\n"          # sees 9001
        "- 0\n"
        "# transition 0 is gone from here on\n"
        "1.0 0.3 7.0 0.2\n"          # sees 9001 but not 0
        "4.0 4.1\n"
    )

    @pytest.mark.parametrize("batch_size", ["1", "8"])
    @pytest.mark.parametrize("workers", ["0", "1"])
    def test_each_answer_is_the_oracle_at_its_line(
        self, data_dir, tmp_path, capsys, toy_routes, toy_transitions, workers, batch_size
    ):
        """Every printed answer equals brute force on the dataset version
        that was current when its line was read, in-process and pooled.
        At batch size 8 the whole stream is in flight at once, so the
        server must hold each update until the queries before it are
        answered."""
        stream = tmp_path / "stream.txt"
        stream.write_text(self.STREAM)
        code = self._run(
            data_dir, stream, "--k", "2", "--workers", workers, "--batch-size", batch_size
        )
        assert code == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            match = re.match(r".*:(\d+): \d+ transitions \(version (\d+)\): (.*)$", line)
            if match:
                ids = [] if match[3] == "-" else [int(tid) for tid in match[3].split()]
                printed[int(match[1])] = (int(match[2]), ids)

        transitions = TransitionDataset(list(toy_transitions))
        version = 0
        expected = {}
        for number, line in enumerate(self.STREAM.splitlines(), start=1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            if fields[0] == "+":
                x1, y1, x2, y2 = (float(value) for value in fields[2:])
                transitions.add(Transition(int(fields[1]), (x1, y1), (x2, y2)))
                version += 1
            elif fields[0] == "-":
                transitions.remove(int(fields[1]))
                version += 1
            else:
                values = [float(value) for value in fields]
                points = list(zip(values[::2], values[1::2]))
                oracle = rknnt_bruteforce(toy_routes, transitions, points, 2)
                expected[number] = (version, sorted(oracle.transition_ids))
        assert printed == expected
        # The three reads of one query differ, so a stale read would show.
        assert len({tuple(expected[n][1]) for n in (1, 4, 7)}) == 3


class TestWatch:
    @pytest.fixture
    def update_log(self, tmp_path):
        path = tmp_path / "updates.log"
        path.write_text(
            "# replayed stream\n"
            "+ 9000 1.0 0.2 7.0 0.1   # hugs route 0\n"
            "+ 9001 50.0 50.0 60.0 60.0\n"
            "- 9000\n"
            "- 5\n"
        )
        return str(path)

    def test_watch_replays_and_verifies(self, data_dir, update_log, capsys):
        code = main(
            [
                "watch",
                "--data-dir",
                data_dir,
                "--k",
                "2",
                "--point",
                "1.0",
                "0.0",
                "--point",
                "7.0",
                "0.0",
                "--updates",
                update_log,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "watching RkNNT" in out
        assert "replayed 4 updates" in out
        assert "verified against a fresh query" in out
        # The transition hugging route 0 entered and left the result.
        assert "+9000" in out and "-9000" in out

    def test_watch_requires_updates_and_point(self, data_dir):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["watch", "--data-dir", data_dir])

    def test_watch_rejects_malformed_log(self, data_dir, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_text("+ 1 2 3\n")
        with pytest.raises(SystemExit):
            main(
                [
                    "watch",
                    "--data-dir",
                    data_dir,
                    "--point",
                    "1.0",
                    "0.0",
                    "--updates",
                    str(bad),
                ]
            )

    def test_watch_rejects_unknown_delete(self, data_dir, tmp_path, capsys):
        # An unknown delete is rejected with a warning; the watch completes.
        bad = tmp_path / "bad.log"
        bad.write_text("- 424242\n")
        code = main(
            [
                "watch",
                "--data-dir",
                data_dir,
                "--point",
                "1.0",
                "0.0",
                "--updates",
                str(bad),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "rejected" in captured.err
        assert "424242" in captured.err
        assert "verified against a fresh query" in captured.out

    def test_watch_rejects_duplicate_insert(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("+ 0 1.0 1.0 2.0 2.0\n")
        code = main(
            [
                "watch",
                "--data-dir",
                data_dir,
                "--point",
                "1.0",
                "0.0",
                "--updates",
                str(bad),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "rejected" in captured.err
        assert "already present" in captured.err
        assert "verified against a fresh query" in captured.out

    LOG = (
        "+ 9000 1.0 0.2 7.0 0.1\n"
        "+ 9001 50.0 50.0 60.0 60.0\n"
        "- 9000\n"
        "- 5\n"
        "- 0\n"
        "+ 0 1.0 0.1 7.0 0.1\n"
    )
    POINTS = [(1.0, 0.0), (7.0, 0.0)]

    def _watch(self, data_dir, tmp_path, text=LOG):
        log = tmp_path / "updates.log"
        log.write_text(text)
        argv = ["watch", "--data-dir", data_dir, "--k", "2", "--updates", str(log)]
        for x, y in self.POINTS:
            argv += ["--point", str(x), str(y)]
        return main(argv)

    def test_printed_deltas_are_the_library_deltas(
        self, data_dir, tmp_path, capsys, toy_routes, toy_transitions
    ):
        assert self._watch(data_dir, tmp_path) == 0
        printed = [
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if "|" in line and line.split("|")[0].strip().isdigit()
        ]

        processor = RkNNTProcessor(toy_routes, toy_transitions)
        subscription = processor.watch(self.POINTS, 2)
        expected = []
        for step, line in enumerate(self.LOG.splitlines()):
            fields = line.split()
            if fields[0] == "+":
                x1, y1, x2, y2 = (float(value) for value in fields[2:])
                processor.add_transition(Transition(int(fields[1]), (x1, y1), (x2, y2)))
            else:
                processor.remove_transition(int(fields[1]))
            for delta in subscription.poll():
                expected.append(
                    [
                        str(step),
                        fields[0] + fields[1],
                        delta.cause,
                        ",".join(map(str, sorted(delta.added))) or "-",
                        ",".join(map(str, sorted(delta.removed))) or "-",
                    ]
                )
        assert len(expected) >= 4
        assert printed == expected

    def test_divergence_exits_1(self, data_dir, tmp_path, capsys, monkeypatch):
        # With the delta pushes lost, the standing result the command folds
        # from them no longer matches a fresh query.
        monkeypatch.setattr(RkNNTServer, "_push_deltas", lambda self: None)
        assert self._watch(data_dir, tmp_path, "+ 9000 1.0 0.2 7.0 0.1\n") == 1
        assert "diverged from a fresh query" in capsys.readouterr().err
