"""A slow, plain statement of each ranking and selection step of bioqa.

The tests check the program's fast paths against these functions, and
retrieve() and answer() compose them into the reference answer that
answer_pipeline is checked against end to end. Each step is written once,
as PAPER.md states it, with no memo, postings, index array or cache:

- concept_matches: greedy longest match over the lexicon's surface forms;
- analyse, query and topic_features: a text's index terms and cuis, a
  question's concept names and raw terms, and its topic features;
- term_score, bm25 and search: the direct BM25 formula over a forward index (unit id
  -> index terms) at full depth, conjunctive, then relaxed to any term;
- path_similarity and rerank: breadth-first search, and titles ordered by
  the summed similarity of their concepts to the question's;
- rank_passages: BM25 over sentences, with statistics from them alone;
- entities: concept counts over the passages, the question's excluded;
- passage_sentiment and yesno: the sentiment vote;
- first_matches and pattern_matches: the question grammar's matcher;
- average_precision, mrr, ngrams, skip_units and rouge: the evaluation
  measures, each from its definition.

Tokenizing, stemming, sentence splitting and tagging are taken from
bioqa.textproc as they are, since each has an oracle of its own. Scores use
the program's arithmetic operand for operand, so equal inputs give
bit-equal scores and ties fall the same way.
"""

import math
from collections import Counter, deque
from itertools import combinations
from typing import NamedTuple

from bioqa.answer import FACTOID_CAP
from bioqa.conceptlex import coarse_tag_class, word_sentiment
from bioqa.qclass import _PUNCT_TAGS, AnyTag, LiteralSet, PatternMatch, QuestionType, Star
from bioqa.retrieval import DEFAULT_B, DEFAULT_K1, DEFAULT_TOP_PASSAGES
from bioqa.textproc import is_content_word, pos_tag, split_sentences, stem, token_surfaces


def concept_matches(lowered, lexicon):
    """(first token, token count, cui) of each concept mention in lowercased
    token surfaces. At each position every window is looked up, from the
    longest surface form's length down; the first found wins, and the scan
    resumes after it."""
    surfaces = lexicon._surface_to_cui
    longest = max(map(len, map(str.split, surfaces)), default=1)
    matches, i = [], 0
    while i < len(lowered):
        for length in range(min(longest, len(lowered) - i), 0, -1):
            cui = surfaces.get(" ".join(lowered[i:i + length]))
            if cui is not None:
                matches.append((i, length, cui))
                i += length
                break
        else:
            i += 1
    return matches


def analyse(text, stopwords, lexicon):
    """(index terms, cuis) of a text: the stem of each lowercased content
    word in order, then the cui of each concept mention."""
    lowered = [surface.lower() for surface in token_surfaces(text)]
    cuis = [cui for _, _, cui in concept_matches(lowered, lexicon)]
    return [stem(word) for word in lowered if is_content_word(word, stopwords)] + cuis, cuis


def query(question, stopwords, lexicon):
    """(concept names, raw terms) of a question: the preferred name of each
    concept it mentions, each once in first-mention order, and the surface
    of each of its content words."""
    surfaces = token_surfaces(question)
    lowered = [surface.lower() for surface in surfaces]
    names = dict.fromkeys(lexicon.get(cui).preferred for _, _, cui in concept_matches(lowered, lexicon))
    return tuple(names), tuple(s for s, low in zip(surfaces, lowered) if is_content_word(low, stopwords))


def query_terms(question, stopwords, lexicon):
    """The index terms search looks for: those of each concept name of the
    query, or the stems of its raw terms when it names no concept."""
    names, raw_terms = query(question, stopwords, lexicon)
    if names:
        return [term for name in names for term in analyse(name, stopwords, lexicon)[0]]
    return [stem(surface.lower()) for surface in raw_terms]


def topic_features(question, stopwords, lexicon):
    """extract_topic_features without dependency pairs: the counts of the
    content words' surfaces, of each pair of adjacent surfaces, of the
    content words' stems and of each mentioned concept's cui and tui,
    summed."""
    surfaces = token_surfaces(question)
    content = [s for s in surfaces if is_content_word(s.lower(), stopwords)]
    concepts = [lexicon.get(cui) for _, _, cui in concept_matches([s.lower() for s in surfaces], lexicon)]
    return dict(
        Counter(content) + Counter(f"{a}-{b}" for a, b in zip(surfaces, surfaces[1:]))
        + Counter(stem(s.lower()) for s in content) + Counter(c.cui for c in concepts) + Counter(c.tui for c in concepts)
    )


def forward_index(documents, stopwords, lexicon):
    """{doc id: index terms of its title and abstract} of DocumentRecords."""
    return {doc.doc_id: analyse(f"{doc.title} {doc.abstract}", stopwords, lexicon)[0] for doc in documents}


def idf(n_units, n_q):
    return math.log((n_units - n_q + 0.5) / (n_q + 0.5))


def term_score(weight, f, length, avg, k1=DEFAULT_K1, b=DEFAULT_B):
    """What one occurrence of a query term of the given idf weight adds to
    a unit of length that holds it f times; avg is the mean unit length, 0
    when no unit has a term."""
    norm = (1.0 - b) + b * (length / avg) if avg else 1.0
    return weight * (f * (k1 + 1.0)) / (f + k1 * norm)


def bm25(query, units, k1=DEFAULT_K1, b=DEFAULT_B):
    """The Okapi BM25 score of each unit, a list of index terms, for the
    query's terms in query order, repeats counted. N, each term's number of
    holding units and the mean length are taken over units; a term whose
    idf is not positive adds nothing."""
    avg = sum(map(len, units)) / len(units) if units else 0.0
    weights = {term: idf(len(units), sum(term in unit for unit in units)) for term in query}
    scores = []
    for unit in units:
        score = 0.0
        for term in query:
            f = unit.count(term)
            if f and weights[term] > 0.0:
                score += term_score(weights[term], f, len(unit), avg, k1, b)
        scores.append(score)
    return scores


def top(scores, limit):
    """Positions of the limit best scores, best first, ties in position
    order; none when limit < 1."""
    return sorted(range(len(scores)), key=lambda i: -scores[i])[:max(limit, 0)]


def search(units, query, limit, k1=DEFAULT_K1, b=DEFAULT_B):
    """(unit id, score) of the limit best units of a forward index that
    hold every query term, or, when none holds them all, any of them; and
    whether the search relaxed so. Every unit is scored before the cut."""
    distinct = set(query)
    if not distinct or limit < 1:
        return [], False
    candidates = [uid for uid, terms in units.items() if all(term in terms for term in distinct)]
    relaxed = not candidates
    if relaxed:
        candidates = [uid for uid, terms in units.items() if any(term in terms for term in distinct)]
    scores = dict(zip(units, bm25(query, list(units.values()), k1, b)))
    kept = top([scores[uid] for uid in candidates], limit)
    return [(candidates[j], scores[candidates[j]]) for j in kept], relaxed


def path_similarity(a, b, graph):
    """1 / the number of nodes on a shortest path from a to b, found
    breadth first; None when there is none or either is not in the graph."""
    if a not in graph.adjacency or b not in graph.adjacency:
        return None
    nodes = {a: 1}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        if node == b:
            return 1.0 / nodes[node]
        for neighbour in graph.adjacency[node]:
            if neighbour not in nodes:
                nodes[neighbour] = nodes[node] + 1
                queue.append(neighbour)
    return None


def similarity_sum(question_cuis, title_cuis, graph):
    """The path similarities of every (question cui, title cui) pair that
    has one, added question cui by question cui."""
    total = 0.0
    for qc in question_cuis:
        for tc in title_cuis:
            sim = path_similarity(qc, tc, graph)
            if sim is not None:
                total += sim
    return total


def rerank(question_cuis, titles, graph, m):
    """(doc id, score) of the m best of titles, (doc id, title cuis) pairs,
    by similarity_sum; ties keep the given order."""
    scores = [similarity_sum(question_cuis, cuis, graph) for _, cuis in titles]
    return [(titles[i][0], scores[i]) for i in top(scores, m)]


class Passage(NamedTuple):
    doc_id: str
    sent_index: int
    text: str
    terms: list
    cuis: list


def passages(docs, abbreviations, stopwords, lexicon):
    """A Passage for each abstract sentence of docs, in order."""
    return [Passage(doc.doc_id, i, sentence.text, *analyse(sentence.text, stopwords, lexicon))
            for doc in docs for i, sentence in enumerate(split_sentences(doc.abstract, abbreviations))]


def rank_passages(question_terms, sentences, k1=DEFAULT_K1, b=DEFAULT_B, top_n=DEFAULT_TOP_PASSAGES):
    """(position, score) of the top_n best sentences, each a list of index
    terms, by bm25 with statistics from these sentences alone."""
    scores = bm25(question_terms, sentences, k1, b)
    return [(i, scores[i]) for i in top(scores, top_n)]


def entities(passage_cuis, question_cuis, lexicon, cap=None):
    """[preferred name, *synonyms] of the cap concepts most often mentioned
    in passage_cuis, one cui list per passage, the question's concepts left
    out; equal counts keep first-mention order, and a synonym equal to the
    lowercased preferred name is dropped."""
    mentioned = [cui for cuis in passage_cuis for cui in cuis if cui not in question_cuis]
    ranked = sorted(dict.fromkeys(mentioned), key=lambda cui: -mentioned.count(cui))
    answers = []
    for cui in ranked[:len(ranked) if cap is None else max(cap, 0)]:
        concept = lexicon.get(cui)
        answers.append([concept.preferred, *(s for s in concept.synonyms if s != concept.preferred.lower())])
    return answers


def passage_sentiment(text, sentiment, tag_lexicon):
    """The summed sentiment of every token of text, each read in the coarse
    class of the tag pos_tag gives it."""
    return sum(word_sentiment(surface.lower(), coarse_tag_class(tag), sentiment)
               for surface, tag in pos_tag(token_surfaces(text), tag_lexicon))


def yesno(texts, sentiment, tag_lexicon):
    """(answer, positives, negatives): a passage scoring at least 0 votes
    yes, and the answer is yes unless the no votes outnumber the yes."""
    positives = sum(passage_sentiment(text, sentiment, tag_lexicon) >= 0.0 for text in texts)
    negatives = len(texts) - positives
    return "yes" if positives >= negatives else "no", positives, negatives


def first_matches(tagged, patterns):
    """(shift, match) of each pattern's first match over (surface, tag)
    pairs, every token tried as a start."""
    tags = [tag for _, tag in tagged]
    lowered = [surface.lower() for surface, _ in tagged]
    found = []
    for pattern in patterns:
        match = _matcher(pattern.elements, tags, lowered)
        for shift in range(len(tagged)):
            captured = match(0, shift)
            if captured is not None:
                found.append((shift, PatternMatch(pattern, tuple(sorted(Counter(captured).items())))))
                break
    return found


def pattern_matches(tagged, patterns):
    """The first matches at the earliest shift where any pattern matches,
    in pattern order."""
    found = first_matches(tagged, patterns)
    earliest = min((shift for shift, _ in found), default=None)
    return [match for shift, match in found if shift == earliest]


def _matcher(elements, tags, lowered):
    """match(i, pos): what elements[i:] capture when matched from token pos,
    or None. A literal set tries its phrases in order and a star the
    shortest run first. Each (element, position) is matched once: a star
    records its result at every position its scan passed, so matching every
    shift of a long question stays linear."""
    n = len(tags)
    memo = {}

    def match(i, pos):
        if i == len(elements):
            return ()
        if (i, pos) in memo:
            return memo[i, pos]
        head, result = elements[i], None
        if isinstance(head, Star):
            end = pos
            while end <= n:
                if (i, end) in memo:
                    result = memo[i, end]
                    break
                result = match(i + 1, end)
                if result is not None:
                    break
                end += 1
            for p in range(pos, min(end, n) + 1):
                memo[i, p] = result
            return result
        if pos < n:
            if isinstance(head, LiteralSet):
                for phrase in head.phrases:
                    if lowered[pos] == phrase[0] and tuple(lowered[pos:pos + len(phrase)]) == phrase:
                        result = match(i + 1, pos + len(phrase))
                        if result is not None:
                            result = ((" ".join(phrase),) if head.capture else ()) + result
                            break
            elif isinstance(head, AnyTag) or tags[pos] == head.tag:
                result = match(i + 1, pos + 1)
                if result is not None:
                    result = (tags[pos],) + result
        memo[i, pos] = result
        return result

    return match


def type_features(tagged, patterns):
    """The patterns space's features: those of the earliest matches, merged
    by largest count, or with no match the counts of the surfaces and of the
    tags that are not punctuation."""
    matches = pattern_matches(tagged, patterns)
    if not matches:
        return dict(Counter(surface for surface, _ in tagged) + Counter(t for _, t in tagged if t not in _PUNCT_TAGS))
    merged = {}
    for match in matches:
        for feature, count in match.features:
            merged[feature] = max(merged.get(feature, 0), count)
    return merged


class Retrieval(NamedTuple):
    documents: list  # (doc id, score), reranked
    passages: list  # (Passage, score), ranked
    relaxed: bool
    question_terms: list
    question_cuis: list


def retrieve(question, documents, units, resources, config):
    """Search units, the forward index of documents, at retrieve_depth,
    rerank to top_docs and rank their sentences to top_passages."""
    lexicon, stopwords = resources.concept_lexicon, resources.stopwords
    terms, cuis = analyse(question, stopwords, lexicon)
    found, relaxed = search(units, query_terms(question, stopwords, lexicon), config.retrieve_depth, config.k1, config.b)
    titles = [(doc_id, analyse(documents[doc_id].title, stopwords, lexicon)[1]) for doc_id, _ in found]
    reranked = rerank(cuis, titles, resources.graph, config.top_docs)
    sentences = passages([documents[doc_id] for doc_id, _ in reranked], resources.abbreviations, stopwords, lexicon)
    ranked = rank_passages(terms, [s.terms for s in sentences], config.k1, config.b, config.top_passages)
    return Retrieval(reranked, [(sentences[i], score) for i, score in ranked], relaxed, terms, cuis)


def answer(question_id, question, got, model, resources, config):
    """answer_to_json's object for the question, whose retrieve() gave got:
    the type from the model's scores of type_features, the ideal answer
    from the two best of the kept passages ranked again, and the exact
    answer by type."""
    question_type = QuestionType(model.predict(
        type_features(pos_tag(token_surfaces(question), resources.tag_lexicon), resources.patterns)))
    kept = [passage for passage, _ in got.passages]
    ideal = rank_passages(got.question_terms, [p.terms for p in kept], config.k1, config.b, 2)
    exact = None
    if question_type is QuestionType.YESNO:
        exact = yesno([p.text for p in kept], resources.sentiment, resources.tag_lexicon)[0]
    elif question_type in (QuestionType.FACTOID, QuestionType.LIST):
        cap = FACTOID_CAP if question_type is QuestionType.FACTOID else config.list_cap
        exact = entities([p.cuis for p in kept], got.question_cuis, resources.concept_lexicon, cap)
    flags = ["search_relaxed"] if got.relaxed else []
    if not kept:
        flags += ["no_passages", "empty_ideal"] + (["yesno_vote_empty"] if question_type is QuestionType.YESNO else [])
    if question_type is QuestionType.LIST and not exact:
        flags.append("empty_entity_list")
    return {
        "id": question_id,
        "type": question_type.value,
        "exact_answer": exact,
        "ideal_answer": " ".join(kept[i].text for i, _ in ideal),
        "documents": list(dict.fromkeys(p.doc_id for p in kept)),
        "snippets": [{"document": p.doc_id, "text": p.text, "rank": rank} for rank, p in enumerate(kept, 1)],
        "flags": flags,
    }


# Evaluation: the BioASQ measures, over ids and token lists.


def average_precision(ranked, gold):
    """The precision at each rank that holds a gold item, summed over the
    number of distinct gold items, found or not."""
    gold = set(gold)
    hits, total = 0, 0.0
    for r, item in enumerate(ranked, 1):
        if item in gold:
            hits += 1
            total += hits / r
    return total / len(gold)


def mrr(ranks):
    """The mean of 1 / rank over every question; a question whose answer
    was never found, rank None, adds 0."""
    return sum(1.0 / r for r in ranks if r is not None) / len(ranks)


def ngrams(tokens, n):
    """The multiset of every run of n consecutive tokens."""
    return Counter(tuple(tokens[i:i + n]) for i in range(max(0, len(tokens) - n + 1)))


def skip_units(tokens, max_skip):
    """ROUGE-SU's units: each token, and each ordered pair of tokens with at
    most max_skip tokens between them, in one multiset."""
    units = Counter(("u", token) for token in tokens)
    for i, j in combinations(range(len(tokens)), 2):
        if j - i - 1 <= max_skip:
            units["s", tokens[i], tokens[j]] += 1
    return units


def rouge(candidate, references):
    """ROUGE recall (Lin 2004) of candidate units against the best of the
    references' units: each reference unit matches at most as often as the
    candidate holds it. 0 with no reference, and against an empty one."""
    def recall(reference):
        total = sum(reference.values())
        return sum(min(candidate[unit], count) for unit, count in reference.items()) / total if total else 0.0
    return max(map(recall, references), default=0.0)
