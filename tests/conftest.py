import pytest

from helpers import FIXTURE_CORPUS


@pytest.fixture(scope="session")
def corpus_records():
    from mailminer import scan_corpus

    result = scan_corpus(FIXTURE_CORPUS)
    assert not result.skipped
    return result.records


@pytest.fixture(scope="session")
def corpus_dataset(corpus_records):
    from mailminer import records_to_dataset

    return records_to_dataset(corpus_records)
