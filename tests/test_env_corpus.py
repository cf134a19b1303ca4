"""Every env report on the seeded plan corpus stays byte-identical."""

from tripsmith.evaluation import RULE_IDS

from .env_corpus import DIGEST, corpus_digest, reports


def test_env_reports_match_the_pinned_corpus_digest():
    rows = reports()
    assert len(rows) >= 8000
    for rule in RULE_IDS:
        assert sum(not row["rules"][rule] for row in rows) >= 50, rule
    assert corpus_digest(rows) == DIGEST
