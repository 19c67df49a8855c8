"""The committed library corpus is what the library computes today."""

from make_corpus import CORPUS, generate


def test_library_corpus_is_reproduced():
    committed = CORPUS.read_text(encoding="utf-8").splitlines()
    generated = generate()
    for number, (line, now) in enumerate(zip(committed, generated), 1):
        assert now == line, f"{CORPUS.name} line {number} differs:\ncommitted: {line}\nnow:       {now}"
    assert len(generated) == len(committed)
    assert CORPUS.stat().st_size < 500_000
