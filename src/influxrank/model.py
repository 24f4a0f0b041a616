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
from itertools import compress, islice, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Optional

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
    if _strips_nul(values, col):
        raise ValidationError(f"{what} must not end in a NUL character")
    return col


def _strips_nul(values: Sequence[str], col: np.ndarray) -> bool:
    """Whether the numpy string column col of values lost a trailing NUL:
    fixed-width numpy strings drop them, which would change an id."""
    return bool(col.size) and int(np.char.str_len(col).sum()) != sum(map(len, values))


def _look_up(position: dict[str, int], names: list[str]) -> np.ndarray:
    """position[name] for each of names, or -1 where it has none."""
    return np.fromiter(map(position.get, names, repeat(-1)), np.intp, len(names))


def _resolve(codes: np.ndarray, present, own: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Per row, as an object array: own[c] where codes holds a row c >= 0,
    extra[-1 - c] where it holds a code c < 0, and None where present is
    False."""
    out = np.full(len(codes), None, dtype=object)
    rows = present & (codes >= 0)
    out[rows] = own[codes[rows]].tolist()
    named = present & (codes < 0)
    out[named] = extra[-1 - codes[named]].tolist()
    return out


def _reindex(codes: np.ndarray, present: np.ndarray, new_row: np.ndarray, names: np.ndarray,
             extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table): codes, a row r >= 0 or -1 - k for extra[k] where
    present is True, with each row r moved to new_row[r]; a row whose
    new_row is -1 becomes its name, names[r]. table holds the sorted
    distinct names that codes then name, as -1 - (index into table).
    codes is changed in place."""
    named = np.flatnonzero(present & (codes < 0))
    own = np.flatnonzero(present & (codes >= 0))
    moved = new_row[codes[own]]
    gone = own[moved < 0]
    refs = np.concatenate([extra[-1 - codes[named]], names[codes[gone]]])
    codes[own] = moved
    table, code = np.unique(refs, return_inverse=True)
    codes[np.concatenate([named, gone])] = -1 - code
    return codes, table


# the per-row columns of a TweetTable
_ROW_COLUMNS = ("tweet_id", "author", "kind", "ts", "to_user", "has_to_user", "to_tweet",
                "has_to_tweet")


@dataclass(frozen=True, eq=False)
class TweetTable(Sequence):
    """Tweets as columns, one row per tweet: a read-only sequence of Tweet
    records that the package reads column by column.

    Every reference is an int32 index, resolved when the table is built:

    - ``author`` and ``to_user``: a row of ``users`` (the sorted user ids),
      or -1 - k for ``other_users[k]``, a name that is not a user;
    - ``to_tweet``: a row of this table, or -1 - k for
      ``unknown_tweets[k]``, an id that names no row. "" names no row.

    Where ``has_to_user`` or ``has_to_tweet`` is False the column holds -1,
    so "" stays distinct from absent, and a value >= 0 is always a row.
    ``other_users`` and ``unknown_tweets`` hold exactly the names the
    columns use, sorted, so equal tweets give equal tables. ``tweet_id`` is
    the only per-row string column; records build their strings on demand.
    """

    tweet_id: np.ndarray  # str
    author: np.ndarray  # int32
    kind: np.ndarray  # int8 code, an index into TWEET_KINDS
    ts: np.ndarray  # int64
    to_user: np.ndarray  # int32
    has_to_user: np.ndarray  # bool
    to_tweet: np.ndarray  # int32
    has_to_tweet: np.ndarray  # bool
    users: np.ndarray  # str, sorted
    other_users: np.ndarray  # str, sorted
    unknown_tweets: np.ndarray  # str, sorted

    @classmethod
    def from_rows(cls, tweet_id: list, author: list, kind: list, ts: list,
                  to_user: list, to_tweet: list, users: Sequence[str] = ()) -> "TweetTable":
        """Columns from one list per field, indexed against the sorted user
        ids users; None marks an absent target. Tweet ids must be unique."""
        builder = _TableBuilder(users)
        builder.add_rows(tweet_id, author, kind, ts, to_user, to_tweet)
        return builder.build()

    @classmethod
    def from_tweets(cls, tweets: Iterable[Tweet], users: Sequence[str] = ()) -> "TweetTable":
        rows = []
        for tw in tweets:
            tw.validate()
            rows.append((tw.tweet_id, tw.author, tw.kind, tw.timestamp,
                         tw.responds_to_user, tw.responds_to_tweet))
        return cls.from_rows(*([list(col) for col in zip(*rows)] or [[]] * 6), users=users)

    def take(self, rows: np.ndarray, keep_users: Optional[np.ndarray] = None) -> "TweetTable":
        """The given rows, in that order; with keep_users, a mask over
        ``users``, indexed against the kept users. A to_tweet whose row is
        not taken, and an author or to_user who is not kept, become names
        in the side tables."""
        rows = np.asarray(rows, dtype=np.intp)
        new_row = np.full(len(self), -1, dtype=np.int32)
        new_row[rows] = np.arange(len(rows))
        keep = np.ones(len(self.users), dtype=bool) if keep_users is None else keep_users
        new_user = np.where(keep, np.cumsum(keep) - 1, -1)
        col = {name: getattr(self, name)[rows] for name in _ROW_COLUMNS}
        n = len(rows)
        names, other_users = _reindex(
            np.concatenate([col["author"], col["to_user"]]),
            np.concatenate([np.ones(n, dtype=bool), col["has_to_user"]]),
            new_user, self.users, self.other_users,
        )
        col["author"], col["to_user"] = names[:n], names[n:]
        col["to_tweet"], unknown_tweets = _reindex(
            col["to_tweet"], col["has_to_tweet"], new_row, self.tweet_id, self.unknown_tweets
        )
        table = TweetTable(**col, users=self.users[keep], other_users=other_users,
                           unknown_tweets=unknown_tweets)
        if "id_order" in self.__dict__:
            # the taken rows, in the id order of this table
            moved = new_row[self.id_order]
            table.__dict__["id_order"] = moved[moved >= 0]
        return table

    @cached_property
    def id_order(self) -> np.ndarray:
        """The rows in tweet-id order. A table that a builder made, or that
        take made from a table that had it, holds it from the start; any
        other sorts its ids on first use."""
        return np.argsort(self.tweet_id, kind="stable")

    def records(self, rows=slice(None)) -> list[Tweet]:
        """The Tweet records of rows (a slice or an index array)."""
        users, others = self.users, self.other_users
        return list(map(
            Tweet,
            self.tweet_id[rows].tolist(),
            _resolve(self.author[rows], True, users, others).tolist(),
            [TWEET_KINDS[k] for k in self.kind[rows].tolist()],
            self.ts[rows].tolist(),
            _resolve(self.to_user[rows], self.has_to_user[rows], users, others).tolist(),
            _resolve(self.to_tweet[rows], self.has_to_tweet[rows], self.tweet_id,
                     self.unknown_tweets).tolist(),
        ))

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.records(i)
        i = range(len(self))[i]
        return self.records(slice(i, i + 1))[0]

    def __iter__(self):
        return iter(self.records())


class _TableBuilder:
    """A TweetTable built from blocks of tweet columns. Each block's names
    are indexed as it is added, so only its tweet ids and the ids of its
    target tweets are kept as strings until build().

    The errors that build() raises (a duplicate id, a timestamp beyond
    int64, an id that ends in a NUL) wait for it, so any error of a later
    block's line-by-line parse comes first, as in a parse of the whole file.
    """

    def __init__(self, users: Sequence[str]):
        users = list(users)
        self.users = np.array(users, dtype=str)
        self.position = dict(zip(users, range(len(users))))
        # names that are not users, each with its number in order of first use
        self.others: dict[str, int] = {}
        self.blocks: list[tuple] = []
        self.parents: list[np.ndarray] = []  # each block's target tweet ids
        self.errors: set[str] = set()
        # an empty first block gives every column its dtype
        self.add((), (), (), (), (), (), (), ())

    def _codes(self, names: Sequence[str], what: str) -> np.ndarray:
        """Each name's row in users, or -1 - k where it is the k-th name met
        that is not a user."""
        codes = _look_up(self.position, names).astype(np.int32)
        for i in np.flatnonzero(codes < 0).tolist():
            if names[i].endswith("\x00"):
                self.errors.add(what)
            codes[i] = -1 - self.others.setdefault(names[i], len(self.others))
        return codes

    def add(self, tweet_id: Sequence[str], author: Sequence[str], kind: Sequence[str], ts,
            to_user: Sequence[str], has_to_user, to_tweet: Sequence[str], has_to_tweet,
            plain: bool = False) -> None:
        """One block of columns, targets "" where absent; plain when no
        string can hold a NUL."""
        n = len(tweet_id)
        ids = np.array(tweet_id, dtype=str)
        if not plain and _strips_nul(tweet_id, ids):
            self.errors.add("tweet ids")
        try:
            stamps = np.array(ts, dtype=np.int64)
        except OverflowError:
            self.errors.add("ts")
            stamps = np.zeros(n, dtype=np.int64)
        has_user = np.fromiter(map(bool, has_to_user), bool, n)
        has_tweet = np.fromiter(map(bool, has_to_tweet), bool, n)
        targets = np.full(n, -1, dtype=np.int32)
        targets[has_user] = self._codes(list(compress(to_user, has_user)), "to_user")
        parents = list(compress(to_tweet, has_tweet))
        parent_ids = np.array(parents, dtype=str)
        if not plain and _strips_nul(parents, parent_ids):
            self.errors.add("to_tweet")
        self.blocks.append((ids, self._codes(author, "authors"),
                            np.fromiter(map(_KIND_CODE.__getitem__, kind), np.int8, n),
                            stamps, targets, has_user, has_tweet))
        self.parents.append(parent_ids)

    def add_rows(self, tweet_id: list, author: list, kind: list, ts: list, to_user: list,
                 to_tweet: list) -> None:
        """One block as from_rows takes it, None marking an absent target."""
        self.add(tweet_id, author, kind, ts,
                 ["" if u is None else u for u in to_user], [u is not None for u in to_user],
                 ["" if t is None else t for t in to_tweet], [t is not None for t in to_tweet])

    def build(self) -> TweetTable:
        ids, author, kind, ts, to_user, has_to_user, has_to_tweet = map(
            np.concatenate, zip(*self.blocks))
        parents = np.concatenate(self.parents)
        self.blocks.clear()
        self.parents.clear()
        if "tweet ids" in self.errors:
            raise ValidationError("tweet ids must not end in a NUL character")
        order = np.argsort(ids, kind="stable")
        by_id = ids[order]
        repeats = order[1:][by_id[1:] == by_id[:-1]]
        if repeats.size:
            raise ValidationError(f"duplicate tweet_id {str(ids[repeats.min()])!r}")
        if "ts" in self.errors:
            raise ValidationError("tweet timestamp exceeds int64")
        for what in ("authors", "to_user", "to_tweet"):
            if what in self.errors:
                raise ValidationError(f"{what} must not end in a NUL character")
        # each target id's row, found in the ids' sorted order
        at = np.searchsorted(by_id, parents)
        found = np.zeros(len(parents), dtype=bool)
        inside = np.flatnonzero(at < len(by_id))
        found[inside] = by_id[at[inside]] == parents[inside]
        found &= parents != ""
        to_tweet = np.full(len(ids), -1, dtype=np.int32)
        rows = np.flatnonzero(has_to_tweet)
        to_tweet[rows[found]] = order[at[found]]
        unknown_tweets, code = np.unique(parents[~found], return_inverse=True)
        to_tweet[rows[~found]] = -1 - code
        # the names that are not users, renumbered in sorted order
        n = len(ids)
        names, other_users = _reindex(
            np.concatenate([author, to_user]),
            np.concatenate([np.ones(n, dtype=bool), has_to_user]),
            np.arange(len(self.users), dtype=np.int32), self.users,
            np.array(list(self.others), dtype=str),
        )
        table = TweetTable(
            tweet_id=ids, author=names[:n], kind=kind, ts=ts, to_user=names[n:],
            has_to_user=has_to_user, to_tweet=to_tweet, has_to_tweet=has_to_tweet,
            users=self.users, other_users=other_users, unknown_tweets=unknown_tweets,
        )
        # the ids were sorted above: id_order need not sort them again
        table.__dict__["id_order"] = order
        return table


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
    before a duplicate before an edge to an unknown user. Only
    ``elimination_order`` is computed later, once, when first read.
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

    @cached_property
    def elimination_order(self) -> np.ndarray:
        """Reverse Cuthill-McKee order of the users over the follow edges
        taken as undirected (Cuthill and McKee, "Reducing the Bandwidth of
        Sparse Symmetric Matrices", 1969): order[i] is the user whose row
        and column come i-th. Every link-scoring matrix on this graph has
        its off-diagonal entries on these edges, so one order serves them
        all."""
        # imported here: csgraph alone adds about 10 MB of resident
        # libraries, 1 MB once scipy.sparse.linalg is loaded
        from scipy import sparse
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        n = len(self.vertices)
        rows, cols = np.concatenate((self.src, self.dst)), np.concatenate((self.dst, self.src))
        pattern = sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        order = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
        # every scorer on the graph shares it, so it is read-only as src is
        order.flags.writeable = False
        return order

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
    order. It is held as a TweetTable sorted by (timestamp, tweet_id) and
    indexed against ``user_ids``, the sorted user ids, so its ``author``,
    ``to_user`` and ``to_tweet`` columns hold the rows the package reads.
    ``id_order`` lists the rows in tweet-id order: the order in which the
    table's builder sorted the ids, or one sort on first use.
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
        user_ids = _str_column(graph.vertices, "user ids")
        if not (isinstance(tweets, TweetTable) and np.array_equal(tweets.users, user_ids)):
            tweets = TweetTable.from_tweets(tweets, graph.vertices)
        unknown = np.flatnonzero(tweets.author < 0)
        if unknown.size:
            i = unknown[0]
            raise ValidationError(f"tweet {tweets.tweet_id[i]}: unknown author"
                                  f" {str(tweets.other_users[-1 - tweets.author[i]])!r}")
        ts, ids = tweets.ts, tweets.tweet_id
        # serialize writes tweets in this order, so a loaded table is sorted
        if not np.all((ts[1:] > ts[:-1]) | ((ts[1:] == ts[:-1]) & (ids[1:] > ids[:-1]))):
            tweets = tweets.take(np.lexsort((ids, ts)))
        self.users = users
        self.graph = graph
        self.tweets = tweets
        self.observation_window = observation_window
        self.tz_offset = tz_offset
        self.dropped_tweets = dropped_tweets
        self.user_ids = tweets.users

    @property
    def id_order(self) -> np.ndarray:
        """The tweet rows in tweet-id order: ``tweets.id_order``."""
        return self.tweets.id_order

    @cached_property
    def author_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, bounds): the tweet rows grouped by author in user-id order,
        each group in time order; user i's rows are rows[bounds[i]:bounds[i + 1]]."""
        author = self.tweets.author
        n = len(self.user_ids)
        bounds = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(author, minlength=n), out=bounds[1:])
        return np.argsort(author, kind="stable"), bounds

    @cached_property
    def tweets_by_author(self) -> dict[str, list[Tweet]]:
        rows, bounds = self.author_groups
        records = self.tweets.records(rows)
        return {
            uid: records[bounds[i]:bounds[i + 1]]
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


def _match_tweets(lines: list[str]) -> Optional[tuple]:
    """The _TableBuilder.add columns of lines, when every non-blank one
    matches _TWEET_RE and _parse_tweet_lines would raise on none; None
    otherwise.

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
    # a response without a target user: _check_tweet's error
    if any(k != "original" and not u for k, u in zip(kind, has_to_user)):
        return None
    return tweet_id, author, kind, ts, to_user, has_to_user, to_tweet, has_to_tweet


def _parse_tweets(lines: Iterable[str], users: Sequence[str] = ()) -> TweetTable:
    """The tweets of tweets.jsonl lines, indexed against the sorted user ids
    users, in blocks of _PARSE_ROWS lines.

    A block that _match_tweets takes goes to the table builder as its
    columns; any other is parsed line by line first. Either way its names
    become indices before the next block is read, and each error is the
    one the line-by-line parse of the whole file raises.
    """
    builder, lines, start = _TableBuilder(users), iter(lines), 1
    while block := list(islice(lines, _PARSE_ROWS)):
        columns = _match_tweets(block)
        if columns is None:
            builder.add_rows(*_parse_tweet_lines(block, start))
        else:
            builder.add(*columns, plain=True)
        start += len(block)
    return builder.build()


def _select(
    users: dict[str, UserRecord],
    edges: list[tuple[str, str]],
    tweets: TweetTable,
    window: Optional[tuple[int, int]],
    tz_offset: int,
    min_tweets: int,
) -> Dataset:
    """The Dataset of parsed users, edges and tweets (indexed against the
    sorted users), whether they came from the JSONL files or the cache; see
    ingest for the rules."""
    author = tweets.author
    if window is None:
        window = (int(tweets.ts.min()), int(tweets.ts.max())) if len(tweets) else (0, 0)
    start, end = window
    keep = (author >= 0) & (tweets.ts >= start) & (tweets.ts <= end)
    active = None
    if min_tweets > 0:
        active = np.bincount(author[keep], minlength=len(users)) >= min_tweets
        if not active.any():
            raise ValidationError(f"no user has >= {min_tweets} tweets")
        kept = {u for u, a in zip(sorted(users), active.tolist()) if a}
        users = {u: rec for u, rec in users.items() if u in kept}
        edges = [(a, b) for a, b in edges if a in kept and b in kept]
        keep[keep] = active[author[keep]]
    dropped = len(tweets) - int(keep.sum())
    if dropped or active is not None:
        tweets = tweets.take(np.flatnonzero(keep), active)
    return Dataset(
        users=users,
        graph=FollowGraph(users.keys(), edges),
        tweets=tweets,
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
    tweets = _parse_tweets(tweets_stream, sorted(users))
    return _select(users, edges, tweets, window, tz_offset, min_tweets)


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
    """Per row, ', "key": value' where present is True and "" elsewhere;
    values holds JSON string literals where present."""
    out = np.full(len(values), "", dtype=object)
    out[present] = f', "{key}": ' + values[present]
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
    from the columns through fixed templates, each user id escaped once;
    each reference is written as the id its index stands for.
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
    graph, tweets = dataset.graph, dataset.tweets
    user = _json_strings(tweets.users)
    other_user = _json_strings(tweets.other_users)
    kind = _json_strings(np.array(TWEET_KINDS))

    def edge_lines(rows: slice) -> str:
        pairs = zip(user[graph.src[rows]].tolist(), user[graph.dst[rows]].tolist())
        return "".join([_EDGE_LINE % pair for pair in pairs])

    def tweet_lines(rows: slice) -> str:
        has_user, has_tweet = tweets.has_to_user[rows], tweets.has_to_tweet[rows]
        to_user = _resolve(tweets.to_user[rows], has_user, user, other_user)
        to_tweet = _resolve(tweets.to_tweet[rows], has_tweet, tweets.tweet_id,
                            tweets.unknown_tweets)
        to_tweet[has_tweet] = _json_strings(to_tweet[has_tweet])
        records = zip(
            user[tweets.author[rows]].tolist(),
            map(encode_basestring_ascii, tweets.tweet_id[rows].tolist()),
            kind[tweets.kind[rows]].tolist(),
            _optional_members("to_tweet", to_tweet, has_tweet),
            _optional_members("to_user", to_user, has_user),
            tweets.ts[rows].tolist(),
        )
        return "".join([_TWEET_LINE % record for record in records])

    _write_lines(paths["edges"], graph.n_edges, edge_lines)
    _write_lines(paths["tweets"], len(tweets), tweet_lines)
    return paths


def sha256_file(path: Path) -> str:
    # read into one reused 256 KiB buffer: a stage's manifest hashes its
    # files while the stage's data are still alive, so a fresh bytes object
    # per chunk would add to its peak
    digest = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    with path.open("rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def write_npz(path: Path, sources: Sequence[Path], **arrays: np.ndarray) -> dict[Path, str]:
    """np.savez(path) of the sha256 of each source file, as member
    ``sha256_<stem>``, and then of arrays: a parse cache of the sources that
    read_npz reads while they are unchanged. Returns the digests by source
    path, for a manifest to reuse."""
    digests = {p: sha256_file(p) for p in sources}
    np.savez(path, **{f"sha256_{p.stem}": np.array(d) for p, d in digests.items()}, **arrays)
    return digests


def read_npz(path: Path, sources: Sequence[Path], build: Callable[[dict], object]):
    """build(arrays) of the members of the npz that write_npz(path, sources,
    ...) wrote, by name; None when there is no npz, it cannot be read, a
    source has changed since, or build raises a ValueError, KeyError or
    IndexError (a cache of another layout, or with an index out of range)."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            if any(str(npz[f"sha256_{p.stem}"]) != sha256_file(p) for p in sources):
                return None
            arrays = {key: npz[key] for key in npz.files if not key.startswith("sha256_")}
        return build(arrays)
    except (OSError, ValueError, KeyError, IndexError, EOFError, zipfile.BadZipFile):
        return None


def index_column(values: np.ndarray, high: int, low: int = 0,
                 present: Optional[np.ndarray] = None) -> None:
    """Check that values are int32 and in [low, high); with present, only
    where present is True, and -1 elsewhere."""
    if values.dtype != np.int32 or present is not None and (
            present.dtype != bool or present.shape != values.shape):
        raise ValueError("an index column is not int32 or does not fit its table")
    named = values if present is None else values[present]
    if (named.size and not low <= named.min() <= named.max() < high) or (
            present is not None and (values[~present] != -1).any()):
        raise ValueError("an index column is out of range")


def write_cache(dataset: Dataset, out_dir: str | Path) -> tuple[Path, dict[Path, str]]:
    """Write CACHE_NAME into out_dir, where serialize(dataset, out_dir) has
    just written the JSONL files: the users, edges and tweet columns that
    parsing those files gives (the tweets as TweetTable holds them: index
    columns and the two side tables of names), and the sha256 of each
    file. load_dataset reads it in place of the JSONL files while every
    digest still matches. Returns the cache's path and the digests by JSONL
    path, for a manifest to reuse."""
    out = Path(out_dir)
    graph, tweets = dataset.graph, dataset.tweets
    records = [dataset.users[u] for u in graph.vertices]
    path = out / CACHE_NAME
    digests = write_npz(
        path, [out / f"{name}.jsonl" for name in _JSONL_NAMES],
        user_id=_str_column([r.user_id for r in records], "user ids"),
        user_listed=np.array([r.listed_count for r in records], dtype=np.int64),
        user_favourites=np.array([r.favourites_received for r in records], dtype=np.int64),
        user_verified=np.array([r.verified for r in records], dtype=bool),
        user_topics=np.array([r.topic_distribution for r in records], dtype=float),
        # each column as wide as its own longest id, as a parse of the edges gives
        edge_follower=_str_column(graph._ids(graph.src), "edge followers"),
        edge_friend=_str_column(graph._ids(graph.dst), "edge friends"),
        # the user ids are user_id
        **{f"tweet_{f.name}": getattr(tweets, f.name) for f in fields(TweetTable)
           if f.name != "users"},
    )
    return path, digests


def _cached_dataset(arrays: dict) -> tuple[dict[str, UserRecord], list, TweetTable]:
    """The parsed users, edges and tweets of a dataset cache's arrays, its
    index columns checked to be in range."""
    columns = (arrays[f"user_{name}"].tolist()
               for name in ("id", "listed", "favourites", "verified", "topics"))
    users = {uid: UserRecord(uid, listed, favourites, verified, tuple(topics))
             for uid, listed, favourites, verified, topics in zip(*columns)}
    edges = list(zip(arrays["edge_follower"].tolist(), arrays["edge_friend"].tolist()))
    column = {f.name: arrays[f"tweet_{f.name}"] for f in fields(TweetTable)
              if f.name != "users"}
    others, unknown = column["other_users"], column["unknown_tweets"]
    n, n_users = len(column["tweet_id"]), len(users)
    index_column(column["author"], n_users, present=np.ones(n, dtype=bool))
    index_column(column["to_user"], n_users, -len(others), column["has_to_user"])
    index_column(column["to_tweet"], n, -len(unknown), column["has_to_tweet"])
    return users, edges, TweetTable(**column, users=arrays["user_id"])


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
    cached = read_npz(in_dir / CACHE_NAME, [in_dir / f"{name}.jsonl" for name in _JSONL_NAMES],
                      _cached_dataset)
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
    tweet_counts = np.bincount(dataset.tweets.author, minlength=n)
    corr: Optional[float] = None
    if n >= 2 and followers.std() > 0 and friends.std() > 0:
        corr = float(np.corrcoef(followers, friends)[0, 1])
    return DistributionReport(
        follower_hist=dict(Counter(followers.tolist())),
        friend_hist=dict(Counter(friends.tolist())),
        tweet_hist=dict(Counter(tweet_counts.tolist())),
        follower_friend_corr=corr,
    )
