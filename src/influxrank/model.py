"""Social graph data model: users, tweets, follow edges, and descriptive stats."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

import numpy as np

TWEET_KINDS = ("original", "retweet", "reply")

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 86400
# Unix epoch day 0 is a Thursday; offset 3 makes Monday index 0.
_EPOCH_WEEKDAY_OFFSET = 3


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
        topics = self.topic_distribution
        if not topics:
            raise ValidationError(f"user {self.user_id}: empty topic distribution")
        if any(t < 0 for t in topics):
            raise ValidationError(f"user {self.user_id}: negative topic weight")
        if abs(sum(topics) - 1.0) > 1e-9:
            raise ValidationError(f"user {self.user_id}: topics sum to {sum(topics)}")


@dataclass(frozen=True)
class Tweet:
    tweet_id: str
    author: str
    kind: str
    timestamp: int
    responds_to_user: Optional[str] = None
    responds_to_tweet: Optional[str] = None

    @property
    def is_response(self) -> bool:
        return self.kind in ("retweet", "reply")

    def validate(self) -> None:
        if self.kind not in TWEET_KINDS:
            raise ValidationError(f"tweet {self.tweet_id}: unknown kind {self.kind!r}")
        if self.is_response and self.responds_to_user is None:
            raise ValidationError(
                f"tweet {self.tweet_id}: {self.kind} without a target user"
            )


class FollowGraph:
    """Directed follow edges: (u, v) means u follows v (v is u's friend)."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self._friends: dict[str, list[str]] = {v: [] for v in vertices}
        self._followers: dict[str, list[str]] = {v: [] for v in self._friends}
        seen: set[tuple[str, str]] = set()
        for follower, friend in edges:
            if follower == friend:
                raise ValidationError(f"self-loop edge ({follower}, {friend})")
            if (follower, friend) in seen:
                raise ValidationError(f"duplicate edge ({follower}, {friend})")
            if follower not in self._friends or friend not in self._friends:
                raise ValidationError(
                    f"edge ({follower}, {friend}) references unknown user"
                )
            seen.add((follower, friend))
            self._friends[follower].append(friend)
            self._followers[friend].append(follower)
        for adj in self._friends.values():
            adj.sort()
        for adj in self._followers.values():
            adj.sort()
        self._n_edges = len(seen)

    @property
    def vertices(self) -> list[str]:
        return sorted(self._friends)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def friends(self, user_id: str) -> list[str]:
        return self._friends[user_id]

    def followers(self, user_id: str) -> list[str]:
        return self._followers[user_id]

    def has_edge(self, follower: str, friend: str) -> bool:
        return friend in self._friends.get(follower, ())

    def edges(self) -> Iterable[tuple[str, str]]:
        for follower in sorted(self._friends):
            for friend in self._friends[follower]:
                yield follower, friend


@dataclass
class Dataset:
    """Immutable after ingestion; any number of concurrent readers is safe."""

    users: dict[str, UserRecord]
    graph: FollowGraph
    tweets: list[Tweet]
    observation_window: tuple[int, int]
    tz_offset: int = 0
    dropped_tweets: int = 0
    tweets_by_id: dict[str, Tweet] = field(init=False, repr=False)
    tweets_by_author: dict[str, list[Tweet]] = field(init=False, repr=False)

    def __post_init__(self):
        self.tweets.sort(key=lambda tw: (tw.timestamp, tw.tweet_id))
        self.tweets_by_id = {tw.tweet_id: tw for tw in self.tweets}
        by_author: dict[str, list[Tweet]] = {u: [] for u in self.users}
        for tw in self.tweets:
            by_author[tw.author].append(tw)
        self.tweets_by_author = by_author

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def topic_count(self) -> int:
        first = next(iter(self.users.values()))
        return len(first.topic_distribution)

    def hour_of(self, timestamp: int) -> int:
        return ((timestamp + self.tz_offset) // SECONDS_PER_HOUR) % 24

    def weekday_of(self, timestamp: int) -> int:
        day = (timestamp + self.tz_offset) // SECONDS_PER_DAY
        return (day + _EPOCH_WEEKDAY_OFFSET) % 7


def _parse_jsonl(lines: Iterable[str], source: str) -> Iterable[tuple[int, dict]]:
    for line_no, line in enumerate(lines, start=1):
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


def _require(obj: dict, key: str, source: str, line_no: int):
    if key not in obj:
        raise ParseError(source, line_no, f"missing key {key!r}")
    return obj[key]


def ingest(
    users_stream: Iterable[str],
    edges_stream: Iterable[str],
    tweets_stream: Iterable[str],
    window: Optional[tuple[int, int]] = None,
    tz_offset: int = 0,
    min_tweets: int = 0,
) -> Dataset:
    """Parse and validate line-delimited JSON streams into a Dataset.

    Without a window, the timestamp range of all parsed tweets (those by
    unknown authors included) is used. Tweets by unknown authors or outside
    the window are dropped and counted.
    When min_tweets > 0, users with fewer tweets (after windowing) are removed
    along with their edges and tweets, in a single pass.
    """
    users: dict[str, UserRecord] = {}
    topic_k: Optional[int] = None
    for line_no, obj in _parse_jsonl(users_stream, "users"):
        rec = UserRecord(
            user_id=str(_require(obj, "id", "users", line_no)),
            listed_count=int(_require(obj, "listed", "users", line_no)),
            favourites_received=int(_require(obj, "favourites", "users", line_no)),
            verified=bool(_require(obj, "verified", "users", line_no)),
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

    edges: list[tuple[str, str]] = []
    for line_no, obj in _parse_jsonl(edges_stream, "edges"):
        edges.append(
            (
                str(_require(obj, "follower", "edges", line_no)),
                str(_require(obj, "friend", "edges", line_no)),
            )
        )

    parsed: list[Tweet] = []
    for line_no, obj in _parse_jsonl(tweets_stream, "tweets"):
        tw = Tweet(
            tweet_id=str(_require(obj, "id", "tweets", line_no)),
            author=str(_require(obj, "author", "tweets", line_no)),
            kind=str(_require(obj, "kind", "tweets", line_no)),
            timestamp=int(_require(obj, "ts", "tweets", line_no)),
            responds_to_user=(
                str(obj["to_user"]) if obj.get("to_user") is not None else None
            ),
            responds_to_tweet=(
                str(obj["to_tweet"]) if obj.get("to_tweet") is not None else None
            ),
        )
        tw.validate()
        parsed.append(tw)
    if window is None:
        stamps = [tw.timestamp for tw in parsed]
        window = (min(stamps), max(stamps)) if stamps else (0, 0)
    start, end = window
    tweets = [tw for tw in parsed if tw.author in users and start <= tw.timestamp <= end]
    dropped = len(parsed) - len(tweets)

    if min_tweets > 0:
        counts: dict[str, int] = {u: 0 for u in users}
        for tw in tweets:
            counts[tw.author] += 1
        keep = {u for u, n in counts.items() if n >= min_tweets}
        if not keep:
            raise ValidationError(f"no user has >= {min_tweets} tweets")
        users = {u: rec for u, rec in users.items() if u in keep}
        edges = [(a, b) for a, b in edges if a in keep and b in keep]
        pre = len(tweets)
        tweets = [tw for tw in tweets if tw.author in keep]
        dropped += pre - len(tweets)

    graph = FollowGraph(users.keys(), edges)
    return Dataset(
        users=users,
        graph=graph,
        tweets=tweets,
        observation_window=window,
        tz_offset=tz_offset,
        dropped_tweets=dropped,
    )


def serialize(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write users/edges/tweets JSONL files; inverse of ingest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    users_path = out / "users.jsonl"
    with users_path.open("w") as fh:
        for uid in sorted(dataset.users):
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
    paths["users"] = users_path
    edges_path = out / "edges.jsonl"
    with edges_path.open("w") as fh:
        for follower, friend in dataset.graph.edges():
            fh.write(json.dumps({"follower": follower, "friend": friend}) + "\n")
    paths["edges"] = edges_path
    tweets_path = out / "tweets.jsonl"
    with tweets_path.open("w") as fh:
        for tw in dataset.tweets:
            obj = {
                "id": tw.tweet_id,
                "author": tw.author,
                "kind": tw.kind,
                "ts": tw.timestamp,
            }
            if tw.responds_to_user is not None:
                obj["to_user"] = tw.responds_to_user
            if tw.responds_to_tweet is not None:
                obj["to_tweet"] = tw.responds_to_tweet
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    paths["tweets"] = tweets_path
    return paths


def load_dataset(
    in_dir: str | Path,
    window: Optional[tuple[int, int]] = None,
    tz_offset: int = 0,
    min_tweets: int = 0,
) -> Dataset:
    """Ingest a directory produced by serialize() / the synth command.

    Without an explicit window, the tweet timestamp range is used.
    """
    in_dir = Path(in_dir)
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
    if dataset.n_users == 0:
        raise ValidationError("empty dataset")
    followers = []
    friends = []
    tweet_counts = []
    for uid in sorted(dataset.users):
        followers.append(len(dataset.graph.followers(uid)))
        friends.append(len(dataset.graph.friends(uid)))
        tweet_counts.append(len(dataset.tweets_by_author[uid]))

    def hist(values):
        h: dict[int, int] = {}
        for v in values:
            h[v] = h.get(v, 0) + 1
        return h

    fol = np.asarray(followers, dtype=float)
    fri = np.asarray(friends, dtype=float)
    corr: Optional[float] = None
    if len(fol) >= 2 and fol.std() > 0 and fri.std() > 0:
        corr = float(np.corrcoef(fol, fri)[0, 1])
    return DistributionReport(
        follower_hist=hist(followers),
        friend_hist=hist(friends),
        tweet_hist=hist(tweet_counts),
        follower_friend_corr=corr,
    )


def loglog_slope(values: Iterable[int], n_bins: int = 12) -> float:
    """Least-squares slope of log density vs log value on logarithmic bins.

    For samples from a power law p(k) ~ k^-a the slope estimates -a.
    """
    vals = np.asarray([v for v in values if v >= 1], dtype=float)
    if vals.size < 10:
        raise ValidationError("too few positive samples for a slope fit")
    lo, hi = vals.min(), vals.max()
    if hi <= lo:
        raise ValidationError("degenerate sample range")
    edges = np.logspace(math.log10(lo), math.log10(hi), n_bins + 1)
    edges[0] *= 0.999
    edges[-1] *= 1.001
    counts, edges = np.histogram(vals, bins=edges)
    widths = np.diff(edges)
    centers = np.sqrt(edges[:-1] * edges[1:])
    mask = counts > 0
    if mask.sum() < 3:
        raise ValidationError("too few populated bins for a slope fit")
    density = counts[mask] / widths[mask]
    slope, _ = np.polyfit(np.log(centers[mask]), np.log(density), 1)
    return float(slope)
