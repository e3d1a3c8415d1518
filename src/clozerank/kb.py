"""KB ingestion: triples, relation templates, typed candidate sets, queries."""

from .jsonio import is_utf8_text, open_text, read_jsonl
from .wordpiece import MASK_TOKEN

SUBJECT_SLOT = "[X]"
OBJECT_SLOT = "[Y]"


class Triple:
    """One (subject, relation, object) fact; each field a non-empty UTF-8 string.

    ingest_dataset keys its dicts by id and relation_id before a Triple exists,
    so its reader checks those two as UTF-8 text, and a Triple checks the
    labels' encoding only.
    """

    __slots__ = ("id", "subject", "relation_id", "object")

    def __init__(self, id: str, subject: str, relation_id: str, object: str):
        self.id, self.subject, self.relation_id, self.object = id, subject, relation_id, object
        for name in self.__slots__:
            value = getattr(self, name)
            if not value or name in ("subject", "object") and not is_utf8_text(value):
                raise ValueError(f"triple field {name} must be a non-empty UTF-8 string")


class RelationSpec:
    """A relation id with its cloze template."""

    __slots__ = ("relation_id", "template")

    def __init__(self, relation_id: str, template: str):
        self.relation_id, self.template = relation_id, template
        for slot in (SUBJECT_SLOT, OBJECT_SLOT):
            if template.count(slot) != 1:
                raise ValueError(
                    f"template for {relation_id!r} must contain exactly one "
                    f"{slot}: {template!r}"
                )


class Dataset:
    """Triples grouped by relation, with templates and, for each relation that holds
    triples, its candidate set: distinct labels in lexicographic order. Immutable by use."""

    __slots__ = ("relations", "triples_by_relation", "candidates")

    def __init__(self, relations: dict[str, RelationSpec],
                 triples_by_relation: dict[str, list[Triple]],
                 candidates: dict[str, tuple[str, ...]]):
        self.relations, self.triples_by_relation = relations, triples_by_relation
        self.candidates = candidates
        for rel in triples_by_relation:
            labels = candidates.get(rel)
            if not labels:
                raise ValueError(f"empty candidate set for {rel!r}")
            if list(labels) != sorted(set(labels)):
                raise ValueError(f"candidates for {rel!r} must be deduplicated "
                                 "and lexicographically sorted")

    @property
    def relation_ids(self) -> list[str]:
        return sorted(self.triples_by_relation)

    @property
    def n_triples(self) -> int:
        return sum(len(ts) for ts in self.triples_by_relation.values())

    def triples(self):
        for rel in self.relation_ids:
            yield from self.triples_by_relation[rel]


def ingest_dataset(triples_path, templates_path) -> Dataset:
    """Load triples and templates, with build_candidates' sets; every triple's relation
    must have a template.

    Triple rows are JSONL objects {id?, sub_label, obj_label, predicate_id};
    missing ids are synthesized as "<predicate_id>#<index>" with the index
    counting that relation's triples in file order. A given id, like a label,
    must not be blank.
    """
    relations: dict[str, RelationSpec] = {}
    for lineno, _, (rel, template) in read_jsonl(
            templates_path, "relation", "template", text=("relation", "template")):
        if rel in relations:
            raise ValueError(f"{templates_path}:{lineno}: duplicate template for {rel!r}")
        try:
            relations[rel] = RelationSpec(relation_id=rel, template=template)
        except ValueError as exc:
            raise ValueError(f"{templates_path}:{lineno}: {exc}") from None

    triples_by_relation: dict[str, list[Triple]] = {}
    seen_ids: set[str] = set()
    unknown: dict[str, int] = {}
    for lineno, row, (rel, subject, obj) in read_jsonl(
            triples_path, "predicate_id", "sub_label", "obj_label",
            text=("id", "predicate_id")):
        for name, label in (("id", row.get("id")), ("sub_label", subject), ("obj_label", obj)):
            if isinstance(label, str) and not label.strip():
                raise ValueError(f"{triples_path}:{lineno}: blank {name} {label!r}")
        if rel not in relations:
            unknown[rel] = unknown.get(rel, 0) + 1
            continue
        group = triples_by_relation.setdefault(rel, [])
        triple_id = row.get("id") or f"{rel}#{len(group)}"
        if triple_id in seen_ids:
            raise ValueError(f"{triples_path}:{lineno}: duplicate triple id {triple_id!r}")
        seen_ids.add(triple_id)
        try:
            group.append(Triple(id=triple_id, subject=subject, relation_id=rel, object=obj))
        except ValueError as exc:
            raise ValueError(f"{triples_path}:{lineno}: {exc}") from None

    if unknown:
        offenders = ", ".join(
            f"{rel} ({count} triples)" for rel, count in sorted(unknown.items())
        )
        raise ValueError(f"triples reference relations with no template: {offenders}")
    return Dataset(relations, triples_by_relation, build_candidates(triples_by_relation))


def build_candidates(triples_by_relation: dict[str, list[Triple]]) -> dict[str, tuple[str, ...]]:
    """Per relation, the distinct gold objects across its triples, sorted."""
    return {rel: tuple(sorted({t.object for t in triples}))
            for rel, triples in triples_by_relation.items()}


def apply_subset(dataset: Dataset, id_list) -> tuple[Dataset, int]:
    """Retain exactly the listed triple ids; drop relations left empty.

    A kept relation keeps its candidate set from the whole dataset. Returns
    the filtered dataset and the count of ids that matched nothing; unknown
    ids are not an error, and reporting them is up to the caller.
    """
    wanted = set(id_list)
    kept: dict[str, list[Triple]] = {}
    for rel, triples in dataset.triples_by_relation.items():
        selected = [t for t in triples if t.id in wanted]
        if selected:
            kept[rel] = selected
    unknown = len(wanted) - len({t.id for ts in kept.values() for t in ts})
    return Dataset(dict(dataset.relations), kept,
                   {rel: dataset.candidates[rel] for rel in kept}), unknown


def read_subset_ids(path) -> list[str]:
    """The non-blank lines of path, stripped. Lines end at LF, CRLF or CR only, so an
    id may hold any other separator that str.splitlines knows."""
    with open_text(path) as f:
        return [line.strip() for line in f if line.strip()]


def instantiate_query(spec: RelationSpec, subject: str, mask_count: int = 1) -> str:
    """Fill [Y] with mask_count [MASK] tokens, then [X] with subject, slot text and all."""
    if mask_count < 1:
        raise ValueError(f"mask_count must be >= 1, got {mask_count}")
    masks = " ".join([MASK_TOKEN] * mask_count)
    return spec.template.replace(OBJECT_SLOT, masks).replace(SUBJECT_SLOT, subject)
