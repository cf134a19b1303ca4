"""Natural-language-to-constraint translation with checked retry rounds.

Each round sends the query plus the previous attempt and its checker
diagnostics back to the model; the loop stops at the first clean program or
after `DEFAULT_MAX_ROUNDS` (five) attempts. The caller sees every round and
decides what to do with a still-dirty final program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dsl import Diagnostic, check_syntax, is_clean
from .endpoint import Transport, TransportError
from .rank import load_prompt

DEFAULT_MAX_ROUNDS = 5


@dataclass
class TranslationRound:
    source: str
    diagnostics: list[Diagnostic]


@dataclass
class TranslationSession:
    query: str
    rounds: list[TranslationRound] = field(default_factory=list)
    error: str = ""

    @property
    def final_diagnostics(self) -> list[Diagnostic]:
        return self.rounds[-1].diagnostics if self.rounds else []

    @property
    def clean(self) -> bool:
        return bool(self.rounds) and is_clean(self.rounds[-1].diagnostics)


def _strip_fences(reply: str) -> str:
    lines = [line for line in reply.strip().splitlines() if not line.strip().startswith("```")]
    return "\n".join(lines).strip() + "\n"


def nl2dsl(query: str, transport: Transport) -> TranslationSession:
    """Translate a query into a constraint program, retrying on diagnostics."""
    session = TranslationSession(query=query)
    template = load_prompt("nl2dsl")
    previous_source = ""
    previous_diags: list[Diagnostic] = []
    for _ in range(DEFAULT_MAX_ROUNDS):
        prompt = template.format(
            query=query,
            previous_source=previous_source,
            diagnostics="\n".join(d.render() for d in previous_diags),
        )
        try:
            reply = transport.complete(prompt)
        except TransportError as exc:
            session.error = str(exc)
            break
        source = _strip_fences(reply)
        diagnostics = check_syntax(source)
        session.rounds.append(TranslationRound(source, diagnostics))
        if is_clean(diagnostics):
            break
        previous_source, previous_diags = source, diagnostics
    return session
