"""Social graph data model: users, tweets, follow edges, and descriptive stats."""

from __future__ import annotations

import hashlib
import json
import re
import zipfile
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

TWEET_KINDS = ("original", "retweet", "reply")
# kind codes of the TweetTable.kind column: indices into TWEET_KINDS
ORIGINAL, RETWEET, REPLY = range(len(TWEET_KINDS))
_KIND_CODE = {kind: code for code, kind in enumerate(TWEET_KINDS)}

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
# Unix epoch day 0 is a Thursday; offset 3 makes Monday index 0.
_EPOCH_WEEKDAY_OFFSET = 3
_INT64_MAX = np.iinfo(np.int64).max

# The parse cache ingest writes next to the JSONL files it mirrors.
CACHE_NAME = "dataset.npz"
_JSONL_NAMES = ("users", "edges", "tweets")


class ParseError(ValueError):
    """A malformed input record; carries the 1-based line number."""

    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}, line {line_no}: {message}")
        self.source = source
        self.line_no = line_no


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    listed_count: int
    favourites_received: int
    verified: bool
    topic_distribution: tuple[float, ...]

    def validate(self) -> None:
        if self.listed_count < 0 or self.favourites_received < 0:
            raise ValidationError(f"user {self.user_id}: negative count field")
        if max(self.listed_count, self.favourites_received) > _INT64_MAX:
            raise ValidationError(f"user {self.user_id}: count field exceeds int64")
        topics = self.topic_distribution
        if not topics:
            raise ValidationError(f"user {self.user_id}: empty topic distribution")
        if any(t < 0 for t in topics):
            raise ValidationError(f"user {self.user_id}: negative topic weight")
        if abs(sum(topics) - 1.0) > 1e-9:
            raise ValidationError(f"user {self.user_id}: topics sum to {sum(topics)}")


def _check_tweet(tweet_id: str, kind: str, to_user: Optional[str]) -> None:
    if kind not in _KIND_CODE:
        raise ValidationError(f"tweet {tweet_id}: unknown kind {kind!r}")
    if kind != "original" and to_user is None:
        raise ValidationError(f"tweet {tweet_id}: {kind} without a target user")


@dataclass(frozen=True)
class Tweet:
    tweet_id: str
    author: str
    kind: str
    timestamp: int
    responds_to_user: Optional[str] = None
    responds_to_tweet: Optional[str] = None

    def validate(self) -> None:
        _check_tweet(self.tweet_id, self.kind, self.responds_to_user)


def _str_column(values: list[str], what: str) -> np.ndarray:
    col = np.array(values, dtype=str)
    # fixed-width numpy strings drop trailing NULs, which would change an id
    if col.size and int(np.char.str_len(col).sum()) != sum(map(len, values)):
        raise ValidationError(f"{what} must not end in a NUL character")
    return col


def _check_unique(tweet_ids: list[str]) -> None:
    if len(set(tweet_ids)) < len(tweet_ids):
        seen: set[str] = set()
        duplicate = next(t for t in tweet_ids if t in seen or seen.add(t))
        raise ValidationError(f"duplicate tweet_id {duplicate!r}")


def _look_up(position: dict[str, int], names: list[str]) -> np.ndarray:
    """position[name] for each of names, or -1 where it has none."""
    return np.fromiter(map(position.get, names, repeat(-1)), np.intp, len(names))


def _user_indices(position: dict[str, int], tweets: "TweetTable") -> tuple[np.ndarray, np.ndarray]:
    """Per tweet row, the position of its author and of its to_user, each
    -1 where that is not a user."""
    target = np.full(len(tweets), -1, dtype=np.intp)
    named = np.flatnonzero(tweets.has_to_user)
    target[named] = _look_up(position, tweets.to_user[named].tolist())
    return _look_up(position, tweets.author.tolist()), target


@dataclass(frozen=True, eq=False)
class TweetTable(Sequence):
    """Tweets as columns, one row per tweet: a read-only sequence of Tweet
    records that the package reads column by column.

    ``to_user`` and ``to_tweet`` hold "" where ``has_to_user`` and
    ``has_to_tweet`` are False, so an empty-string target stays distinct
    from an absent one.
    """

    tweet_id: np.ndarray  # str
    author: np.ndarray  # str
    kind: np.ndarray  # int8 code, an index into TWEET_KINDS
    ts: np.ndarray  # int64
    to_user: np.ndarray  # str
    has_to_user: np.ndarray  # bool
    to_tweet: np.ndarray  # str
    has_to_tweet: np.ndarray  # bool

    @classmethod
    def from_rows(cls, tweet_id: list, author: list, kind: list, ts: list,
                  to_user: list, to_tweet: list) -> "TweetTable":
        """Columns from one list per field; None marks an absent target.
        Tweet ids must be unique."""
        _check_unique(tweet_id)
        try:
            stamps = np.array(ts, dtype=np.int64)
        except OverflowError:
            raise ValidationError("tweet timestamp exceeds int64") from None
        return cls(
            tweet_id=_str_column(tweet_id, "tweet ids"),
            author=_str_column(author, "authors"),
            kind=np.array([_KIND_CODE[k] for k in kind], dtype=np.int8),
            ts=stamps,
            to_user=_str_column(["" if u is None else u for u in to_user], "to_user"),
            has_to_user=np.array([u is not None for u in to_user], dtype=bool),
            to_tweet=_str_column(["" if t is None else t for t in to_tweet], "to_tweet"),
            has_to_tweet=np.array([t is not None for t in to_tweet], dtype=bool),
        )

    @classmethod
    def from_tweets(cls, tweets: Iterable[Tweet]) -> "TweetTable":
        rows = []
        for tw in tweets:
            tw.validate()
            rows.append((tw.tweet_id, tw.author, tw.kind, tw.timestamp,
                         tw.responds_to_user, tw.responds_to_tweet))
        return cls.from_rows(*([list(col) for col in zip(*rows)] or [[]] * 6))

    def take(self, rows: np.ndarray) -> "TweetTable":
        return TweetTable(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Tweet(
            str(self.tweet_id[i]), str(self.author[i]), TWEET_KINDS[self.kind[i]],
            int(self.ts[i]),
            str(self.to_user[i]) if self.has_to_user[i] else None,
            str(self.to_tweet[i]) if self.has_to_tweet[i] else None,
        )

    def __iter__(self):
        rows = zip(*(getattr(self, f.name).tolist() for f in fields(self)))
        for tid, author, kind, ts, to_user, has_user, to_tweet, has_tweet in rows:
            yield Tweet(tid, author, TWEET_KINDS[kind], ts,
                        to_user if has_user else None, to_tweet if has_tweet else None)


@dataclass(frozen=True)
class _IndexedTweets:
    """A TweetTable with the index into the sorted user ids of each row's
    author and to_user already found, -1 where that is not a user. Dataset
    takes one from the load filter, which keeps only rows by users."""

    table: TweetTable
    author: np.ndarray
    target_user: np.ndarray


class FollowGraph:
    """Directed follow edges: (u, v) means u follows v (v is u's friend).

    The graph is held in index form only, all of it built at construction:

    - ``vertices``: the user ids, sorted, as a list;
    - ``index``: each id's position in ``vertices``;
    - ``src`` and ``dst``: each edge's follower and friend as an index into
      ``vertices``, sorted by follower and then by friend, read-only;
    - ``bounds``: follower i's edges are rows ``bounds[i]:bounds[i + 1]``,
      so its friends are that run of ``dst``, in id order.

    ``edges()``, ``friends``, ``followers`` and ``has_edge`` read these
    arrays. The first bad edge in input order is rejected, as a self-loop
    before a duplicate before an edge to an unknown user.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.vertices = sorted(set(vertices))
        self.index = dict(zip(self.vertices, range(len(self.vertices))))
        pairs = list(edges)
        follower = _look_up(self.index, [a for a, _ in pairs])
        friend = _look_up(self.index, [b for _, b in pairs])
        n, rows = len(self.vertices), np.arange(len(pairs))
        unknown = (follower < 0) | (friend < 0)
        # an edge to an unknown user gets a code of its own, so it repeats none
        code = np.where(unknown, -1 - rows, follower * n + friend)
        order = np.argsort(code, kind="stable")
        repeated = np.zeros(len(pairs), dtype=bool)
        repeated[order[1:]] = code[order[1:]] == code[order[:-1]]
        bad = np.flatnonzero(unknown | repeated | (follower == friend))
        if bad.size:
            u, v = pairs[bad[0]]
            if u == v:
                raise ValidationError(f"self-loop edge ({u}, {v})")
            if repeated[bad[0]]:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            raise ValidationError(f"edge ({u}, {v}) references unknown user")
        self.src, self.dst = follower[order], friend[order]
        self.src.flags.writeable = self.dst.flags.writeable = False
        self.bounds = np.searchsorted(self.src, np.arange(n + 1))

    @property
    def n_edges(self) -> int:
        return len(self.src)

    def _ids(self, rows: np.ndarray) -> list[str]:
        return list(map(self.vertices.__getitem__, rows.tolist()))

    def friends(self, user_id: str) -> list[str]:
        i = self.index[user_id]
        return self._ids(self.dst[self.bounds[i]:self.bounds[i + 1]])

    def followers(self, user_id: str) -> list[str]:
        """In id order; one pass over all edges."""
        return self._ids(self.src[self.dst == self.index[user_id]])

    def has_edge(self, follower: str, friend: str) -> bool:
        i, j = self.index.get(follower), self.index.get(friend)
        return i is not None and j is not None and j in self.dst[self.bounds[i]:self.bounds[i + 1]]

    def edges(self) -> Iterable[tuple[str, str]]:
        return zip(self._ids(self.src), self._ids(self.dst))


class Dataset:
    """Users, follow graph and tweets; immutable after construction, so any
    number of concurrent readers is safe.

    ``tweets`` may be given as Tweet records or as a TweetTable, in any
    order. It is held as a TweetTable sorted by (timestamp, tweet_id), with
    these columns alongside, one entry per tweet row:

    - ``author_index``: the author's index into ``user_ids``, the sorted
      user ids
    - ``target_tweet``: the row of the tweet that ``to_tweet`` names, or -1
      when it is absent, empty or not in the dataset (built on first use)
    - ``target_user``: the index of ``to_user`` into ``user_ids``, or -1
      when it is absent or not a user

    ``id_order`` lists the rows in tweet-id order (built on first use).
    Tweet ids are unique (``TweetTable.from_rows`` checks), and every author
    must be a user. The graph's vertices must be exactly the users, so its
    ``src``/``dst`` index ``user_ids`` too.
    """

    def __init__(
        self,
        users: dict[str, UserRecord],
        graph: FollowGraph,
        tweets: Iterable[Tweet] | TweetTable,
        observation_window: tuple[int, int],
        tz_offset: int = 0,
        dropped_tweets: int = 0,
    ):
        if graph.index.keys() != users.keys():
            odd = sorted(graph.index.keys() ^ users.keys())
            raise ValidationError(f"graph vertices are not the users; in only one: {odd[:3]}")
        if isinstance(tweets, _IndexedTweets):
            tweets, author, target_user = tweets.table, tweets.author, tweets.target_user
        else:
            if not isinstance(tweets, TweetTable):
                tweets = TweetTable.from_tweets(tweets)
            author, target_user = _user_indices(graph.index, tweets)
            unknown = np.flatnonzero(author < 0)
            if unknown.size:
                i = unknown[0]
                raise ValidationError(
                    f"tweet {tweets.tweet_id[i]}: unknown author {str(tweets.author[i])!r}"
                )
        ts, ids = tweets.ts, tweets.tweet_id
        # serialize writes tweets in this order, so a loaded table is sorted
        if not np.all((ts[1:] > ts[:-1]) | ((ts[1:] == ts[:-1]) & (ids[1:] > ids[:-1]))):
            order = np.lexsort((ids, ts))
            tweets, author, target_user = tweets.take(order), author[order], target_user[order]
        self.users = users
        self.graph = graph
        self.tweets = tweets
        self.observation_window = observation_window
        self.tz_offset = tz_offset
        self.dropped_tweets = dropped_tweets
        self.user_ids = _str_column(graph.vertices, "user ids")
        self.author_index = author
        self.target_user = target_user

    @cached_property
    def id_order(self) -> np.ndarray:
        """The tweet rows in tweet-id order."""
        return np.argsort(self.tweets.tweet_id, kind="stable")

    @cached_property
    def target_tweet(self) -> np.ndarray:
        """Per tweet row, the row of the tweet that ``to_tweet`` names, or -1."""
        tweets, order = self.tweets, self.id_order
        by_id = tweets.tweet_id[order]
        target = np.full(len(tweets), -1, dtype=np.intp)
        named = np.flatnonzero(tweets.has_to_tweet & (tweets.to_tweet != ""))
        if named.size and by_id.size:
            at = np.minimum(np.searchsorted(by_id, tweets.to_tweet[named]), len(by_id) - 1)
            found = by_id[at] == tweets.to_tweet[named]
            target[named[found]] = order[at[found]]
        return target

    @cached_property
    def author_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, bounds): the tweet rows grouped by author in user-id order,
        each group in time order; user i's rows are rows[bounds[i]:bounds[i + 1]]."""
        n = len(self.user_ids)
        bounds = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.author_index, minlength=n), out=bounds[1:])
        return np.argsort(self.author_index, kind="stable"), bounds

    @cached_property
    def tweets_by_author(self) -> dict[str, TweetTable]:
        rows, bounds = self.author_groups
        return {
            uid: self.tweets.take(rows[bounds[i]:bounds[i + 1]])
            for i, uid in enumerate(self.graph.vertices)
        }

    @property
    def n_users(self) -> int:
        return len(self.users)

    def hour_of(self, timestamp):
        """Hour of day of a timestamp, or of each in an array."""
        return ((timestamp + self.tz_offset) // SECONDS_PER_HOUR) % 24

    def weekday_of(self, timestamp):
        """Weekday (Monday 0) of a timestamp, or of each in an array."""
        day = (timestamp + self.tz_offset) // SECONDS_PER_DAY
        return (day + _EPOCH_WEEKDAY_OFFSET) % 7


def _parse_jsonl(
    lines: Iterable[str], source: str, start: int = 1
) -> Iterable[tuple[int, dict]]:
    """(line number, object) per non-blank line; start numbers the first."""
    for line_no, line in enumerate(lines, start=start):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(source, line_no, str(exc)) from exc
        if not isinstance(obj, dict):
            raise ParseError(source, line_no, "record is not an object")
        yield line_no, obj


_JSON_TYPE = {int: "integer", bool: "boolean"}


def _require(obj: dict, key: str, source: str, line_no: int, kind: Optional[type] = None):
    """obj[key]; with kind (int or bool) given, a JSON value of that type,
    where true and false are not integers."""
    if key not in obj:
        raise ParseError(source, line_no, f"missing key {key!r}")
    value = obj[key]
    if kind is not None and type(value) is not kind:
        raise ParseError(source, line_no, f"{key!r} must be a JSON {_JSON_TYPE[kind]},"
                                          f" not {value!r:.40}")
    return value


def _parse_users(lines: Iterable[str]) -> dict[str, UserRecord]:
    users: dict[str, UserRecord] = {}
    topic_k: Optional[int] = None
    for line_no, obj in _parse_jsonl(lines, "users"):
        rec = UserRecord(
            user_id=str(_require(obj, "id", "users", line_no)),
            listed_count=_require(obj, "listed", "users", line_no, int),
            favourites_received=_require(obj, "favourites", "users", line_no, int),
            verified=_require(obj, "verified", "users", line_no, bool),
            topic_distribution=tuple(
                float(t) for t in _require(obj, "topics", "users", line_no)
            ),
        )
        rec.validate()
        if rec.user_id in users:
            raise ValidationError(f"duplicate user_id {rec.user_id!r}")
        if topic_k is None:
            topic_k = len(rec.topic_distribution)
        elif len(rec.topic_distribution) != topic_k:
            raise ValidationError(
                f"user {rec.user_id}: topic vector length {len(rec.topic_distribution)}"
                f" != {topic_k}"
            )
        users[rec.user_id] = rec
    if not users:
        raise ValidationError("empty user set")
    return users


def _parse_tweet_lines(lines: Iterable[str], start: int = 1) -> tuple[list, ...]:
    """The from_rows columns of tweet lines, each parsed by json.loads; start
    numbers the first line."""
    ids, authors, kinds, stamps, to_users, to_tweets = [], [], [], [], [], []
    for line_no, obj in _parse_jsonl(lines, "tweets", start):
        try:
            tweet_id, author, kind = obj["id"], obj["author"], obj["kind"]
        except KeyError:
            for key in ("id", "author", "kind"):
                _require(obj, key, "tweets", line_no)
        ts = _require(obj, "ts", "tweets", line_no, int)
        tweet_id, kind = str(tweet_id), str(kind)
        ids.append(tweet_id)
        authors.append(str(author))
        kinds.append(kind)
        stamps.append(ts)
        to_user, to_tweet = obj.get("to_user"), obj.get("to_tweet")
        to_user = None if to_user is None else str(to_user)
        _check_tweet(tweet_id, kind, to_user)
        to_users.append(to_user)
        to_tweets.append(None if to_tweet is None else str(to_tweet))
    return ids, authors, kinds, stamps, to_users, to_tweets


# tweets.jsonl is parsed this many lines at a time
_PARSE_ROWS = 1 << 12
# a JSON string without escapes, so its text is its value; no newline either
_PLAIN = r'"([^"\\\x00-\x1f]*)"'
# a tweet line as serialize writes it, when every string is plain; the
# optional members are captured whole, so "" stays distinct from absent
_TWEET_RE = re.compile(
    rf'^\{{"author": {_PLAIN}, "id": {_PLAIN}, "kind": "(original|retweet|reply)"'
    rf'(, "to_tweet": {_PLAIN})?(, "to_user": {_PLAIN})?, "ts": (-?(?:0|[1-9][0-9]*))\}}$',
    re.M,
)


def _match_tweets(lines: list[str]) -> Optional[TweetTable]:
    """The tweets of lines, when every non-blank one matches _TWEET_RE and
    _parse_tweet_lines would raise on none; None otherwise.

    A match cannot span lines and a line holds at most one, so as many
    matches as non-blank lines means every one matched. That holds while
    each line is one line of the joined text, so a newline may only end one.
    """
    # a block that starts with a line of another form (or a blank one) is
    # parsed line by line without the scan; past this there is a match
    if not _TWEET_RE.match(lines[0]):
        return None
    text = "".join(lines)
    if text.count("\n") != sum(map(str.endswith, lines, repeat("\n"))):
        return None
    matches = _TWEET_RE.findall(text)
    if len(matches) != len(lines) and len(matches) != sum(map(bool, map(str.strip, lines))):
        return None
    author, tweet_id, kind, has_to_tweet, to_tweet, has_to_user, to_user, ts = zip(*matches)
    n = len(matches)
    try:
        stamps = np.array(ts, dtype=np.int64)
    except OverflowError:
        return None
    table = TweetTable(
        tweet_id=np.array(tweet_id, dtype=str),
        author=np.array(author, dtype=str),
        kind=np.fromiter(map(_KIND_CODE.__getitem__, kind), np.int8, n),
        ts=stamps,
        to_user=np.array(to_user, dtype=str),
        has_to_user=np.fromiter(map(bool, has_to_user), bool, n),
        to_tweet=np.array(to_tweet, dtype=str),
        has_to_tweet=np.fromiter(map(bool, has_to_tweet), bool, n),
    )
    # a response without a target user: _check_tweet's error
    if np.any((table.kind != ORIGINAL) & ~table.has_to_user):
        return None
    return table


def _row_lists(table: TweetTable) -> tuple[list, ...]:
    """The columns of table as the lists that from_rows takes."""
    def optional(values: np.ndarray, present: np.ndarray) -> list:
        return [v if p else None for v, p in zip(values.tolist(), present.tolist())]

    return (table.tweet_id.tolist(), table.author.tolist(),
            [TWEET_KINDS[k] for k in table.kind.tolist()], table.ts.tolist(),
            optional(table.to_user, table.has_to_user),
            optional(table.to_tweet, table.has_to_tweet))


def _parse_tweets(lines: Iterable[str]) -> TweetTable:
    """The tweets of tweets.jsonl lines, in blocks of _PARSE_ROWS lines.

    A block that _match_tweets takes becomes numpy columns before the next
    is read; any other is parsed line by line, and then every row goes
    through from_rows, so each error is the one the line-by-line parse of
    the whole file raises.
    """
    lines, parts, start = iter(lines), [], 1
    while block := list(islice(lines, _PARSE_ROWS)):
        part = _match_tweets(block)
        parts.append(_parse_tweet_lines(block, start) if part is None else part)
        start += len(block)
    if parts and all(isinstance(part, TweetTable) for part in parts):
        table = TweetTable(**{
            f.name: np.concatenate([getattr(part, f.name) for part in parts])
            for f in fields(TweetTable)
        })
        _check_unique(table.tweet_id.tolist())
        return table
    columns: list[list] = [[] for _ in range(6)]
    for part in parts:
        for column, values in zip(columns, _row_lists(part) if isinstance(part, TweetTable)
                                  else part):
            column += values
    return TweetTable.from_rows(*columns)


def _select(
    users: dict[str, UserRecord],
    edges: list[tuple[str, str]],
    tweets: _IndexedTweets,
    window: Optional[tuple[int, int]],
    tz_offset: int,
    min_tweets: int,
) -> Dataset:
    """The Dataset of parsed users, edges and tweets, whether they came from
    the JSONL files or the cache; see ingest for the rules."""
    tweets, author, target_user = tweets.table, tweets.author, tweets.target_user
    if window is None:
        window = (int(tweets.ts.min()), int(tweets.ts.max())) if len(tweets) else (0, 0)
    start, end = window
    keep = (author >= 0) & (tweets.ts >= start) & (tweets.ts <= end)
    if min_tweets > 0:
        active = np.bincount(author[keep], minlength=len(users)) >= min_tweets
        if not active.any():
            raise ValidationError(f"no user has >= {min_tweets} tweets")
        kept = {u for u, a in zip(sorted(users), active.tolist()) if a}
        users = {u: rec for u, rec in users.items() if u in kept}
        edges = [(a, b) for a, b in edges if a in kept and b in kept]
        keep[keep] = active[author[keep]]
        # each old index's index among the kept users; the extra last entry
        # keeps -1 at -1
        renumber = np.full(len(active) + 1, -1, dtype=np.intp)
        renumber[np.flatnonzero(active)] = np.arange(int(active.sum()))
        author, target_user = renumber[author], renumber[target_user]
    dropped = len(tweets) - int(keep.sum())
    if dropped:
        rows = np.flatnonzero(keep)
        tweets, author, target_user = tweets.take(rows), author[rows], target_user[rows]
    return Dataset(
        users=users,
        graph=FollowGraph(users.keys(), edges),
        tweets=_IndexedTweets(tweets, author, target_user),
        observation_window=window,
        tz_offset=tz_offset,
        dropped_tweets=dropped,
    )


def ingest(
    users_stream: Iterable[str],
    edges_stream: Iterable[str],
    tweets_stream: Iterable[str],
    window: Optional[tuple[int, int]] = None,
    tz_offset: int = 0,
    min_tweets: int = 0,
) -> Dataset:
    """Parse and validate line-delimited JSON streams into a Dataset.

    Tweet ids must be unique. Without a window, the timestamp range of all
    parsed tweets (those by unknown authors included) is used. Tweets by
    unknown authors or outside the window are dropped and counted.
    When min_tweets > 0, users with fewer tweets (after windowing) are removed
    along with their edges and tweets, in a single pass.
    """
    users = _parse_users(users_stream)
    edges = [
        (
            str(_require(obj, "follower", "edges", line_no)),
            str(_require(obj, "friend", "edges", line_no)),
        )
        for line_no, obj in _parse_jsonl(edges_stream, "edges")
    ]
    tweets = _parse_tweets(tweets_stream)
    # the graph, which owns the id index, is built once the users are final
    position = {u: i for i, u in enumerate(sorted(users))}
    indexed = _IndexedTweets(tweets, *_user_indices(position, tweets))
    return _select(users, edges, indexed, window, tz_offset, min_tweets)


# tweet and edge lines are written this many rows at a time
_WRITE_ROWS = 1 << 14
_TWEET_LINE = '{"author": %s, "id": %s, "kind": %s%s%s, "ts": %d}\n'
_EDGE_LINE = '{"follower": %s, "friend": %s}\n'


def _json_strings(values: np.ndarray) -> np.ndarray:
    """Each string as the JSON string literal json.dumps writes for it."""
    out = np.empty(len(values), dtype=object)
    out[:] = list(map(encode_basestring_ascii, values.tolist()))
    return out


def _optional_members(key: str, values: np.ndarray, present: np.ndarray) -> list[str]:
    """Per row, ', "key": value' where present is True and "" elsewhere."""
    out = np.full(len(values), "", dtype=object)
    out[present] = f', "{key}": ' + _json_strings(values[present])
    return out.tolist()


def _write_lines(path: Path, n_rows: int, lines) -> None:
    """Write lines(rows) for consecutive slices of _WRITE_ROWS of n_rows rows."""
    with path.open("w") as fh:
        for lo in range(0, n_rows, _WRITE_ROWS):
            fh.write(lines(slice(lo, lo + _WRITE_ROWS)))


def serialize(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write users/edges/tweets JSONL files; inverse of ingest.

    Every line holds the bytes ``json.dumps`` writes for its record, with
    sorted keys for users and tweets. Tweet and edge lines are formatted
    from the columns through fixed templates, each user id escaped once.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.jsonl" for name in _JSONL_NAMES}
    with paths["users"].open("w") as fh:
        for uid in dataset.graph.vertices:
            rec = dataset.users[uid]
            fh.write(
                json.dumps(
                    {
                        "id": rec.user_id,
                        "listed": rec.listed_count,
                        "favourites": rec.favourites_received,
                        "verified": rec.verified,
                        "topics": list(rec.topic_distribution),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    user = _json_strings(dataset.user_ids)
    graph, tweets = dataset.graph, dataset.tweets
    kind = _json_strings(np.array(TWEET_KINDS))

    def edge_lines(rows: slice) -> str:
        pairs = zip(user[graph.src[rows]].tolist(), user[graph.dst[rows]].tolist())
        return "".join([_EDGE_LINE % pair for pair in pairs])

    def tweet_lines(rows: slice) -> str:
        records = zip(
            user[dataset.author_index[rows]].tolist(),
            map(encode_basestring_ascii, tweets.tweet_id[rows].tolist()),
            kind[tweets.kind[rows]].tolist(),
            _optional_members("to_tweet", tweets.to_tweet[rows], tweets.has_to_tweet[rows]),
            _optional_members("to_user", tweets.to_user[rows], tweets.has_to_user[rows]),
            tweets.ts[rows].tolist(),
        )
        return "".join([_TWEET_LINE % record for record in records])

    _write_lines(paths["edges"], graph.n_edges, edge_lines)
    _write_lines(paths["tweets"], len(tweets), tweet_lines)
    return paths


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_cache(dataset: Dataset, out_dir: str | Path) -> tuple[Path, dict[Path, str]]:
    """Write CACHE_NAME into out_dir, where serialize(dataset, out_dir) has
    just written the JSONL files: the users, edges and tweet columns that
    parsing those files gives, each tweet's author and to_user index into
    the sorted user ids (int32, -1 where to_user is not a user), and the
    sha256 of each file. load_dataset reads it in place of the JSONL files
    while every digest still matches. Returns the cache's path and the
    digests by JSONL path, for a manifest to reuse."""
    out = Path(out_dir)
    graph = dataset.graph
    records = [dataset.users[u] for u in graph.vertices]
    path = out / CACHE_NAME
    digests = {out / f"{name}.jsonl": sha256_file(out / f"{name}.jsonl") for name in _JSONL_NAMES}
    np.savez(
        path,
        **{f"sha256_{p.stem}": np.array(d) for p, d in digests.items()},
        user_id=_str_column([r.user_id for r in records], "user ids"),
        user_listed=np.array([r.listed_count for r in records], dtype=np.int64),
        user_favourites=np.array([r.favourites_received for r in records], dtype=np.int64),
        user_verified=np.array([r.verified for r in records], dtype=bool),
        user_topics=np.array([r.topic_distribution for r in records], dtype=float),
        # each column as wide as its own longest id, as a parse of the edges gives
        edge_follower=_str_column(graph._ids(graph.src), "edge followers"),
        edge_friend=_str_column(graph._ids(graph.dst), "edge friends"),
        **{f"tweet_{f.name}": getattr(dataset.tweets, f.name) for f in fields(TweetTable)},
        tweet_author_index=dataset.author_index.astype(np.int32),
        tweet_target_user=dataset.target_user.astype(np.int32),
    )
    return path, digests


def _index_column(values: np.ndarray, n_rows: int, low: int, n_users: int) -> np.ndarray:
    """values as intp, once checked to be n_rows integers in [low, n_users)."""
    if values.dtype.kind not in "iu" or values.shape != (n_rows,) or (
        n_rows and not low <= values.min() <= values.max() < n_users
    ):
        raise ValueError("a cached index column does not fit the tweets and users")
    return values.astype(np.intp)


def _read_cache(
    in_dir: Path,
) -> Optional[tuple[dict[str, UserRecord], list[tuple[str, str]], _IndexedTweets]]:
    """The parsed users, edges and indexed tweets held in in_dir's cache;
    None when there is no cache, it cannot be read (a cache without the
    index columns, or with one out of range, included), or a JSONL file has
    changed since it was written."""
    try:
        with np.load(in_dir / CACHE_NAME, allow_pickle=False) as npz:
            for name in _JSONL_NAMES:
                if str(npz[f"sha256_{name}"]) != sha256_file(in_dir / f"{name}.jsonl"):
                    return None
            arrays = {key: npz[key] for key in npz.files}
        users = {
            uid: UserRecord(uid, listed, favourites, verified, tuple(topics))
            for uid, listed, favourites, verified, topics in zip(
                arrays["user_id"].tolist(),
                arrays["user_listed"].tolist(),
                arrays["user_favourites"].tolist(),
                arrays["user_verified"].tolist(),
                arrays["user_topics"].tolist(),
            )
        }
        edges = list(zip(arrays["edge_follower"].tolist(), arrays["edge_friend"].tolist()))
        tweets = TweetTable(**{f.name: arrays[f"tweet_{f.name}"] for f in fields(TweetTable)})
        indexed = _IndexedTweets(
            tweets,
            _index_column(arrays["tweet_author_index"], len(tweets), 0, len(users)),
            _index_column(arrays["tweet_target_user"], len(tweets), -1, len(users)),
        )
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None
    return users, edges, indexed


def load_dataset(
    in_dir: str | Path,
    window: Optional[tuple[int, int]] = None,
    tz_offset: int = 0,
    min_tweets: int = 0,
) -> Dataset:
    """Ingest a directory produced by serialize() / the synth command.

    When ingest left a CACHE_NAME there and no JSONL file has changed since,
    the cache is read in place of the JSONL files; both give the same
    Dataset. Without an explicit window, the tweet timestamp range is used.
    """
    in_dir = Path(in_dir)
    cached = _read_cache(in_dir)
    if cached is not None:
        return _select(*cached, window, tz_offset, min_tweets)
    with (in_dir / "users.jsonl").open() as uf, (in_dir / "edges.jsonl").open() as ef, (
        in_dir / "tweets.jsonl"
    ).open() as tf:
        return ingest(uf, ef, tf, window, tz_offset=tz_offset, min_tweets=min_tweets)


@dataclass
class DistributionReport:
    follower_hist: dict[int, int]
    friend_hist: dict[int, int]
    tweet_hist: dict[int, int]
    follower_friend_corr: Optional[float]


def degree_stats(dataset: Dataset) -> DistributionReport:
    """Histograms of follower / friend / tweet counts plus their correlation."""
    n = dataset.n_users
    if n == 0:
        raise ValidationError("empty dataset")
    followers = np.bincount(dataset.graph.dst, minlength=n)
    friends = np.bincount(dataset.graph.src, minlength=n)
    tweet_counts = np.bincount(dataset.author_index, minlength=n)
    corr: Optional[float] = None
    if n >= 2 and followers.std() > 0 and friends.std() > 0:
        corr = float(np.corrcoef(followers, friends)[0, 1])
    return DistributionReport(
        follower_hist=dict(Counter(followers.tolist())),
        friend_hist=dict(Counter(friends.tolist())),
        tweet_hist=dict(Counter(tweet_counts.tolist())),
        follower_friend_corr=corr,
    )
