"""The reference parser and the citation detector agree with their first-written
forms in ``citation_oracle``: the same authors, warnings, relation and notes."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citation_oracle import oracle_detect_citations, oracle_parse_reference_entry
from conftest import build_dataset, review, reviewer, submission
from revaudit import synthetic as syn
from revaudit.citations import detect_citations, parse_reference_entry
from revaudit.dataset import VenueConfig

NAME_PIECES = (
    "Doe", "Roe", "Smith", "Jane", "John", "Ada", "J.", "J", "A.", "B", "JJ", "X.",
    "Mary-Kate", "O'Neil", "D’Arcy", "van", "de", "der", "Van", "al", "el",
    "Åström", "Müller", "Łukasz", "José", "Ngô", "ÉMILE", "Zoë",
)
MARKERS = (
    ",", ";", "and", "And", "&", "&Roe", "Doe&", "et al.", "Et Al.", "et al", "et",
    ".", "..", "2020", "(2020)", "(1999a)", "12(3):45-67", "3",
    "results", "robust", "and", "of", "the", "on", "in",
)
# What goes between two pieces; "" glues them, so "Doe" "&" "Roe" reads "Doe&Roe".
JOINTS = (" ", " ", " ", "", ", ", ",", ". ", ".", "; ", "  ")

piece = st.sampled_from(NAME_PIECES + MARKERS)
soup = st.lists(st.tuples(piece, st.sampled_from(JOINTS)), max_size=14).map(
    lambda parts: "".join(p + j for p, j in parts)
)

last = st.sampled_from(("Doe", "Roe", "Smith", "van Helsing", "de la Cruz", "Mary-Kate",
                        "O'Neil", "Åström", "Müller", "Ngô", "doe", "Doe."))
given_name = st.sampled_from(("Jane", "J.", "J", "J. A.", "Ada", "Łukasz", "Zoë", "JJ",
                              "j.", "A.B.", "Jane Ann", ""))
NAME_FORMS = ("{l}, {g}", "{g} {l}", "{l} {g}", "{l}", "{g}")
name = st.builds(lambda form, l, g: form.format(l=l, g=g),
                 st.sampled_from(NAME_FORMS), last, given_name)
separator = st.sampled_from((", ", "; ", " and ", " & ", ", and ", "&", " &", ",", " And ",
                             " and and ", ".. "))
tail = st.sampled_from(("", ", et al.", " et al.", " Et Al.", " and et al.", " & et al", ";"))
title = st.sampled_from(("Robust estimation of tails", "Bias and variance",
                         "Smith and Jones revisited", "results", "A. B. C", "Doe. Roe",
                         "2020. Results"))
end = st.sampled_from(("", ". Journal, 2020.", " (2019). Venue.", ". In Proc., 1999a.",
                       ". Venue 12(3):45-67, 2015.", "..", " 2020"))


@st.composite
def structured(draw):
    names = draw(st.lists(name, min_size=1, max_size=4))
    text = names[0]
    for n in names[1:]:
        text += draw(separator) + n
    text += draw(tail) + draw(st.sampled_from((". ", ".", " ", ".. ")))
    return text + draw(title) + draw(end)


entries = st.one_of(soup, structured())


def parsed_and_warned(parse, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        authors = parse(text)
    return authors, [(w.category, str(w.message), w.filename) for w in caught]


@given(text=entries)
@settings(max_examples=3000, deadline=None)
def test_parser_agrees_with_the_first_written_parser(text):
    assert parsed_and_warned(parse_reference_entry, text) == parsed_and_warned(
        oracle_parse_reference_entry, text
    )


@pytest.mark.parametrize("text", [
    "", "   ", "Doe&Roe. Title. 2020.", "J. Doe&A. Roe. Title. 2020.", "Doe, J.&Roe, A. T. 2020.",
    "Jane Doe, Ada Roe, and et al. (2019). Title. Venue.", "Et Al. Title. 2020.",
    "van Helsing, A. and de la Cruz, J. and Mary-Kate Olsen. Title of work. 2001.",
    "Doe. Roe. Smith. Results on things. 2020.", "Åström, K. J.; Müller, Ł. Title. 2003.",
])
def test_parser_agrees_on_hand_picked_entries(text):
    assert parsed_and_warned(parse_reference_entry, text) == parsed_and_warned(
        oracle_parse_reference_entry, text
    )


def assert_same_relation(dataset, assignment):
    got, want = detect_citations(dataset, assignment), oracle_detect_citations(dataset, assignment)
    assert got.cited == want.cited
    assert got.ambiguous_pairs == want.ambiguous_pairs
    assert got.overrides == want.overrides
    assert got.warnings == want.warnings


@pytest.mark.parametrize("config", [
    syn.GeneratorConfig.ec_like(n_submissions=300, seed=3),
    syn.GeneratorConfig.icml_like(n_submissions=300, reviewers_per_paper=5, seed=8),
], ids=["ec", "icml"])
def test_detection_agrees_on_generated_venues(config):
    dataset, _, _ = syn.generate(config)
    assert_same_relation(dataset, dataset.review_pairs())


POOL = [
    reviewer("r1", last="Doe", first="Jane"),
    reviewer("r2", last="Smith", first="John"),
    reviewer("r3", last="Smith", first="Jane"),  # collides with r2 on SMITH_J
    reviewer("r4", last="Roe", first=""),  # placeholder initial
    reviewer("r5", last="Müller", first="Ada"),
    reviewer("r6", last="Muller", first="Anna"),  # collides with r5 once folded
    reviewer("r7", last="van Helsing", first="Abe"),
    reviewer("r8", last="Åström", first=""),
]


def pool_venue(entries_per_submission):
    subs = [submission(f"s{i}", entries=entries)
            for i, entries in enumerate(entries_per_submission, start=1)]
    reviews = [review(s.id, r.id, 3, sr_expertise=2) for s in subs for r in POOL]
    return build_dataset(VenueConfig.ec_like(), POOL, subs, reviews)


def test_detection_agrees_on_placeholders_collisions_and_unparseable_entries():
    dataset = pool_venue([
        ["Doe, J. and Smith, J. Title. 2020.", "Roe, B. Other. 2019.", ""],
        ["unparseable lowercase text", "   ", "Muller, A.; Åström, K. Title. 2001."],
        ["A. van Helsing & J. Doe. Vampires. 1897.", "Et Al. Nothing. 2000."],
        [],
    ])
    assert_same_relation(dataset, dataset.review_pairs())


@given(st.lists(st.lists(entries, max_size=4), min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_detection_agrees_on_generated_entries(entries_per_submission):
    dataset = pool_venue(entries_per_submission)
    assert_same_relation(dataset, dataset.review_pairs())
