"""The benchmark's workloads and the correctness checks run on their output.

Each workload is one chainalg CLI call.  Its checks compare the output with
a golden digest recorded from the seed code and, independently of the
program, with facts the output must satisfy (see README.md).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

PARAMS = ["--lambda", "2", "--lambda-f", "2"]
GRAM_GAMMA = (2,)
GRAM_SAMPLE = 48  # Gram entries compared with the tensor model per run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "gram" or "suite"
    argv: tuple  # full-size CLI arguments; "{seed}" is replaced by the seed
    smoke_argv: tuple  # tiny variant for the smoke test
    layers: tuple  # layers that must record calls in a traced run

    def cli_args(self, seed: int, smoke: bool) -> list:
        args = self.smoke_argv if smoke else self.argv
        return [a.replace("{seed}", str(seed)) for a in args] + PARAMS


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gram-size3",
            kind="gram",
            argv=("gram", "--gamma", "2", "--max-size", "3", "--inertia"),
            smoke_argv=("gram", "--gamma", "2", "--max-size", "1", "--inertia"),
            layers=(
                "cli.main",
                "core.Combination.add",
                "core.Combination.scaled",
                "core.Combination.from_items",
                "bracket.bracket_gen",
                "basis.to_b4",
                "verma.insert_letter",
                "verma.gram_matrix",
                "verma.inertia",
            ),
        ),
        Workload(
            name="identities-len5",
            kind="suite",
            argv=("check", "--suite", "identities", "--max-len", "5"),
            smoke_argv=("check", "--suite", "identities", "--max-len", "2"),
            layers=(
                "cli.main",
                "checks.suite",
                "core.Combination.add",
                "core.Combination.from_items",
                "chains.act",
                "chains.equal_on_chains",
            ),
        ),
        Workload(
            name="jacobi-random",
            kind="suite",
            argv=("check", "--suite", "jacobi", "--seed", "{seed}", "--cases", "20000"),
            smoke_argv=("check", "--suite", "jacobi", "--seed", "{seed}", "--cases", "50"),
            layers=(
                "cli.main",
                "checks.suite",
                "core.Combination.add",
                "core.Combination.scaled",
                "core.Combination.from_items",
                "bracket.bracket",
                "bracket.bracket_gen",
                "basis.to_b0",
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# checks that do not compare the program with itself

_PASS_LINE = re.compile(r"(\d+)/(\d+) (?:random triples )?pass$")


def check_suite(text: str) -> list:
    """Every suite line reads `a/b pass` with a == b > 0."""
    lines = text.splitlines()
    if not lines:
        return ["suite printed nothing"]
    problems = []
    for line in lines:
        m = _PASS_LINE.search(line)
        if m is None:
            problems.append(f"unexpected suite line: {line!r}")
        elif m.group(1) != m.group(2) or int(m.group(2)) == 0:
            problems.append(f"suite line does not pass: {line!r}")
    return problems


class GramOracle:
    """Gram entries from the tensor model, as in acceptance criterion 08.

    The pairing of two PBW words is the chain pairing of the words applied
    to a concrete lowest weight vector in a tensor power of the defining
    representation, divided by the vector's norm.
    """

    def __init__(self, gamma=GRAM_GAMMA, colors: int = 2, flavors: int = 2):
        import chainalg

        self.chainalg = chainalg
        self.params = chainalg.AlgebraParams(colors, flavors)
        self.vector = chainalg.lowest_weight_vector_concrete(gamma, self.params)
        self.norm = chainalg.inner_chain(self.vector, self.vector)
        self.images: dict = {}

    def _image(self, word_text: str):
        image = self.images.get(word_text)
        if image is None:
            ca = self.chainalg
            letters = [] if word_text == "1" else word_text.split("*")
            image = self.vector
            for letter in reversed(letters):
                image = ca.act_tensor(ca.parse(letter, self.params).as_element(), image)
            self.images[word_text] = image
        return image

    def pairing(self, word_i: str, word_j: str) -> Fraction:
        return self.chainalg.inner_chain(self._image(word_i), self._image(word_j)) / self.norm


def parse_gram(text: str):
    """(words, rows, inertia line) from `gram --inertia` output."""
    lines = text.splitlines()
    size = int(lines[0].removeprefix("size "))
    words = [line.split(": ", 1)[1] for line in lines[1 : 1 + size]]
    rows = [line.split(": ", 1)[1] for line in lines[1 + size : 1 + 2 * size]]
    return words, rows, lines[1 + 2 * size]


def gram_sample(size: int, seed: int) -> list:
    """Seeded sample of upper-triangle index pairs (i <= j)."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(GRAM_SAMPLE):
        i, j = sorted((rng.randrange(size), rng.randrange(size)))
        pairs.append((i, j))
    return pairs


def check_gram(text: str, seed: int, oracle: GramOracle) -> list:
    """Inertia sums to the size with no negative part; sampled entries match the oracle."""
    try:
        words, rows, inertia_line = parse_gram(text)
    except (ValueError, IndexError) as exc:
        return [f"gram output does not parse: {exc}"]
    m = re.fullmatch(r"inertia: pos=(\d+) zero=(\d+) neg=(\d+)", inertia_line)
    if m is None:
        return [f"unexpected inertia line: {inertia_line!r}"]
    pos, zero, neg = (int(g) for g in m.groups())
    problems = []
    if pos + zero + neg != len(words):
        problems.append(f"inertia {pos}+{zero}+{neg} != size {len(words)}")
    if neg != 0:
        problems.append(f"negative inertia {neg} for a unitary partition weight")
    for i, j in gram_sample(len(words), seed):
        try:
            printed = Fraction(rows[i].split(" ")[j])
            expected = oracle.pairing(words[i], words[j])
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            problems.append(f"gram[{i}][{j}] cannot be checked: {exc}")
            continue
        if printed != expected:
            problems.append(f"gram[{i}][{j}] = {printed}, tensor model gives {expected}")
    return problems
