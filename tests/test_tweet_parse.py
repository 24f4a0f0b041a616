"""The blocked parse of tweets.jsonl against the line-by-line parse.

``model._parse_tweets`` matches whole blocks of lines with one regex of the
line form that ``serialize`` writes, and parses any other block line by
line. Perturbed ``serialize`` lines check that it always gives what the
line-by-line parse of the whole file gives: the same table, or the same
error.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from influxrank import model
from influxrank.model import TweetTable

# plain ids, ids that JSON escapes and ids with raw non-ASCII characters;
# the few fixed ones make duplicate tweet ids common
IDS = st.sampled_from(("", "a", "t1", "é")) | st.text(
    alphabet=st.sampled_from('ab_.-9"\\\x01é€\U0001f600 '), min_size=0, max_size=4)
STAMPS = st.sampled_from((0, 1, -1, 3600, 2**63 - 1, -(2**63), 2**63, 10**30))


@st.composite
def tweet_records(draw):
    kind = draw(st.sampled_from(("original", "original", "retweet", "reply")))
    rec = {"author": draw(IDS), "id": draw(IDS), "kind": kind, "ts": draw(STAMPS)}
    # most responses have a target user, and a few originals too
    if draw(st.integers(0, 9)) < (9 if kind != "original" else 3):
        rec["to_user"] = draw(st.just("") | IDS)
    if draw(st.booleans()):
        rec["to_tweet"] = draw(st.just("") | IDS)
    return rec


def _perturb(rec: dict, how: str) -> str:
    """One line holding rec, written as serialize writes it or perturbed."""
    if how == "reorder":
        return json.dumps(dict(reversed(list(rec.items()))))
    if how == "duplicate":
        return json.dumps(rec, sort_keys=True)[:-1] + ', "kind": "original"}'
    if how == "raw":
        return json.dumps(rec, sort_keys=True, ensure_ascii=False)
    if how in ("float_ts", "bool_ts", "string_ts"):
        value = {"float_ts": 1.0, "bool_ts": True, "string_ts": "7"}[how]
        return json.dumps({**rec, "ts": value}, sort_keys=True)
    line = json.dumps(rec, sort_keys=True)
    if how == "space":
        return line.replace(": ", ":  ", 1)
    if how == "pad":
        return f"  {line} "
    return line


PERTURBATIONS = ("none",) * 6 + ("reorder", "duplicate", "raw", "float_ts", "bool_ts",
                                  "string_ts", "space", "pad")


@st.composite
def tweet_lines(draw):
    """Lines as a file iterator gives them, or as a caller may pass them:
    blank lines, \\r\\n endings, no last newline, two records in one."""
    lines = []
    for rec in draw(st.lists(tweet_records(), max_size=8)):
        how = draw(st.sampled_from(PERTURBATIONS))
        lines.append(_perturb(rec, how) + draw(st.sampled_from(("\n",) * 6 + ("\r\n",))))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(("\n", "  \n", "\r\n", ""))))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    if len(lines) > 1 and draw(st.integers(0, 9)) == 0:
        lines[:2] = [lines[0] + lines[1]]
    return lines


def _line_by_line(lines) -> TweetTable:
    return TweetTable.from_rows(*model._parse_tweet_lines(lines))


def _outcome(parse, lines):
    try:
        return parse(lines)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_outcome(got, want) -> None:
    """The same table, or the same error type and message."""
    if not (isinstance(got, TweetTable) and isinstance(want, TweetTable)):
        assert got == want
        return
    for name in ("tweet_id", "author", "kind", "ts", "to_user", "has_to_user",
                 "to_tweet", "has_to_tweet"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        assert np.array_equal(x, y), name


@settings(max_examples=300, deadline=None)
@given(lines=tweet_lines(), rows=st.sampled_from((1, 3, 1 << 14)))
def test_blocked_parse_equals_line_by_line_parse(lines, rows):
    want = _outcome(_line_by_line, lines)
    with mock.patch.object(model, "_PARSE_ROWS", rows):
        got = _outcome(model._parse_tweets, iter(lines))
    assert_same_outcome(got, want)


A = '{"author": "a", "id": "t1", "kind": "original", "ts": 5}'
B = '{"author": "a", "id": "t2", "kind": "reply", "to_user": "a", "ts": 6}'


@pytest.mark.parametrize("lines", [
    [A + "\n" + B + "\n", A.replace(": ", ":  ") + "\n"],  # two records in one line
    [A[:20], A[20:] + "\n"],  # one record split over two lines
    ["", A + "\n", "", B],  # empty lines
    [A.replace(', "ts"', ', "to_tweet": "", "to_user": "", "ts"') + "\n"],  # empty targets
    [A + "\n", A + "\n"],  # a duplicate id
    [A + "\n", B.replace(', "to_user": "a"', "") + "\n"],  # a reply without a target
    [A.replace("5", "9" * 20) + "\n"],  # ts beyond int64
], ids=["two_in_one", "split", "empty", "empty_targets", "duplicate", "no_target",
        "huge_ts"])
def test_lines_that_only_look_like_tweet_lines(lines):
    assert_same_outcome(_outcome(model._parse_tweets, lines), _outcome(_line_by_line, lines))


def _canonical(n: int) -> list[str]:
    return [json.dumps({"author": f"u{i % 97:04d}", "id": f"t{i:07d}", "kind": "original",
                        "ts": 1_300_000_000 + 17 * i}, sort_keys=True) + "\n" for i in range(n)]


def test_canonical_lines_take_the_fast_path():
    with mock.patch.object(model, "_parse_tweet_lines", side_effect=AssertionError):
        table = model._parse_tweets(_canonical(40))
    assert table.tweet_id[-1] == "t0000039"


def test_fallback_names_the_line_in_a_later_block():
    lines = _canonical(10)
    lines[7] = lines[7].replace('"ts": ', '"ts": "', 1).replace("}", '"}', 1)
    with mock.patch.object(model, "_PARSE_ROWS", 3), pytest.raises(
            model.ParseError, match="tweets, line 8: 'ts' must be a JSON integer"):
        model._parse_tweets(lines)


def _peak(parse, path) -> int:
    with path.open() as fh:
        tracemalloc.start()
        try:
            parse(fh)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_blocked_parse_peak_is_no_higher_than_line_by_line(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text("".join(_canonical(20_000)))
    assert _peak(model._parse_tweets, path) <= _peak(_line_by_line, path)
