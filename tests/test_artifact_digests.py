"""The digest comparison of tools/artifact_digests.py, on canned digests."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "artifact_digests.py")
_spec = importlib.util.spec_from_file_location("artifact_digests", _PATH)
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)


def digests(fill="a"):
    return {name: fill * 64 for name in artifact_digests.ARTIFACTS}


def test_every_artifact_gets_a_line_and_equal_digests_match():
    lines, same = artifact_digests.compare(digests(), digests())
    assert same
    assert len(lines) == len(artifact_digests.ARTIFACTS)
    for name, line in zip(artifact_digests.ARTIFACTS, lines):
        assert line.split() == [name, "a" * 64, "a" * 64, "same"]


@pytest.mark.parametrize("name", artifact_digests.ARTIFACTS)
def test_one_differing_or_missing_digest_is_a_mismatch(name):
    parent = digests()
    parent[name] = "b" * 64
    lines, same = artifact_digests.compare(digests(), parent)
    assert not same
    assert [line.split()[-1] for line in lines].count("DIFFERS") == 1
    change = digests()
    del change[name]
    assert not artifact_digests.compare(change, digests())[1]


def test_without_a_parent_there_is_nothing_to_differ():
    lines, same = artifact_digests.compare(digests(), None)
    assert same and all(line.split()[1] == "a" * 64 for line in lines)


def test_main_exits_1_when_the_trees_differ(tmp_path, monkeypatch):
    runs = iter([digests("a"), digests("b")])
    monkeypatch.setattr(artifact_digests.subprocess, "run", lambda *a, **kw: None)
    monkeypatch.setattr(artifact_digests, "run_tree", lambda tree, inputs, out: next(runs))
    monkeypatch.setattr(artifact_digests, "extract", lambda rev, into: str(tmp_path))
    assert artifact_digests.main(["--parent", "HEAD", "--workdir", str(tmp_path)]) == 1
    runs = iter([digests("a"), digests("a")])
    assert artifact_digests.main(["--parent", "HEAD", "--workdir", str(tmp_path)]) == 0


def test_an_unknown_parent_revision_stops_the_run(tmp_path):
    with pytest.raises(SystemExit, match="unknown revision 'no-such-revision'"):
        artifact_digests.extract("no-such-revision", str(tmp_path))
