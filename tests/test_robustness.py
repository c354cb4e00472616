"""Bad input ends with an exit code and one error line, never a traceback:
corpus files with a few random characters changed, run through the
command line in process."""

import contextlib
import io
import random
from pathlib import Path

from netrw.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "src" / "netrw" / "corpus"

# a term of each system that takes a few steps to normalize
TERMS = {
    "assoc": "m^a_bc m^c_de m^e_fg",
    "circle": "y^a_b y^b_c y^c_d",
    "bridge": "eta^a eps_b",
    "zigzag": "cup_12 cap^23",
    "frobenius": "D^{a c}_x m^b_{c y}",
    "hopf": "D^ab_c m^c_gh S^g_x",
}
ORDERED = ("assoc", "circle")  # the systems with a corpus order
# bytes a mutation may write besides the file's own: the term and file
# syntax, and one byte that is not UTF-8
FOREIGN = b" \n#:;^_{}()-+/=*.,019axymDS\xff"


def mutate(rng: random.Random, data: bytes) -> bytes:
    """data with one to four bytes replaced, inserted or deleted."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        byte = rng.choice(data if rng.random() < 0.5 else FOREIGN)
        op = rng.choice(("replace", "insert", "delete"))
        if op == "insert" or not out:
            out.insert(rng.randint(0, len(out)), byte)
        elif op == "replace":
            out[rng.randrange(len(out))] = byte
        else:
            del out[rng.randrange(len(out))]
    return bytes(out)


def command(system: str, confluence: bool, where: Path) -> list[str]:
    """normalize with a step bound, or confluence under the corpus order
    or with a step bound."""
    files = ["--sig", str(where / f"{system}.sig"), "--rules", str(where / f"{system}.rules")]
    if not confluence:
        return ["normalize", *files, "--max-steps", "10", TERMS[system]]
    if system in ORDERED:
        return ["confluence", *files, "--order", str(where / f"{system}.order")]
    return ["confluence", *files, "--max-steps", "10"]


def test_mutated_corpus_files(tmp_path):
    originals = {p.name: p.read_bytes() for p in CORPUS.iterdir()}
    for name, data in originals.items():
        (tmp_path / name).write_bytes(data)
    rng = random.Random(20261020)
    codes = {0: 0, 1: 0, 2: 0}
    kinds = {"rules": 0, "sig": 0, "map": 0, "order": 0}
    for k in range(600):
        system = rng.choice(list(TERMS))
        roll = rng.random()
        if system in ORDERED and roll < 0.2:
            kind = rng.choice(("map", "order"))
        else:
            kind = "rules" if roll < 0.75 else "sig"
        name = f"{system}.{kind}"
        mutated = mutate(rng, originals[name])
        (tmp_path / name).write_bytes(mutated)
        argv = command(system, rng.random() < 0.5, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            (tmp_path / name).write_bytes(originals[name])
        where = f"mutation {k} of {name}: {mutated!r}, {argv[0]}"
        assert code in codes, (where, code)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (where, lines)
        codes[code] += 1
        kinds[kind] += 1
    # most mutations break a file, but some leave it readable
    assert codes[2] >= 200 and codes[0] + codes[1] >= 100, codes
    assert kinds["rules"] >= 300, kinds
