"""Deterministic prompt construction for classification tasks.

One fixed instruction template is shared by every task; only the task
wording, the label list, and the example label change. The user payload
lists documents as "index. text", one per line.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..dataset import LabelSchema

_INSTRUCTION_TEMPLATE = (
    "You are an AI assistant and you are very good at doing {subject} "
    "classification. You are going to help a customer to classify the "
    "{item_plural} in {venue}. You are only allowed to choose one of the "
    "following {n} categories: {label_list}. Please provide only one "
    "category for each {item_singular} in JSON format where the key is the "
    "index for each {item_singular} and the value is one of the {n} "
    "categories. For example: {{1: {example_label}}}. Please do not repeat "
    "or return the content back again, just provide the category in the "
    "defined format."
)


class PromptError(ValueError):
    """Raised for unbuildable prompt input."""


@dataclass(frozen=True)
class TaskDescription:
    """Task wording slotted into the instruction template."""

    subject: str
    item_singular: str
    item_plural: str
    venue: str

    @classmethod
    def generic(cls, task_name: str) -> "TaskDescription":
        return cls(
            subject=task_name,
            item_singular="text",
            item_plural="texts",
            venue=f"the {task_name} dataset",
        )

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PromptBundle:
    """A fully rendered request: instruction, payload and batch indices."""

    system_instruction: str
    user_payload: str
    batch_indices: tuple[int, ...]


def build_instruction(schema: LabelSchema, task: TaskDescription) -> str:
    """Render the instruction; each schema label appears verbatim in the
    category list, and the first label doubles as the format example."""
    return _INSTRUCTION_TEMPLATE.format(
        subject=task.subject,
        item_plural=task.item_plural,
        venue=task.venue,
        n=len(schema),
        label_list=", ".join(schema.labels),
        item_singular=task.item_singular,
        example_label=schema.labels[0],
    )


def build_prompt(
    schema: LabelSchema,
    task: TaskDescription,
    batch: list[tuple[int, str]],
) -> PromptBundle:
    """Build the prompt for one document batch.

    Pure function: identical inputs produce byte-identical output. Newlines
    inside a document are flattened so each payload line stays "index. text".
    """
    if not batch:
        raise PromptError("empty batch")
    for index, text in batch:
        if not text.strip():
            raise PromptError(f"document {index} has empty text")

    lines = []
    for index, text in batch:
        flat = " ".join(text.split())
        lines.append(f"{index}. {flat}")
    return PromptBundle(
        system_instruction=build_instruction(schema, task),
        user_payload="\n".join(lines),
        batch_indices=tuple(index for index, _ in batch),
    )
