"""Exception hierarchy shared by the ledger, the SLA contract and the tooling."""


class SimError(Exception):
    """Base class for every error raised by this package."""


# --- ledger ---------------------------------------------------------------

class InsufficientFunds(SimError):
    pass


class UnknownAddress(SimError):
    pass


class DuplicateAddress(SimError):
    pass


class MalformedLog(SimError):
    pass


# --- SLA contract ---------------------------------------------------------

class ContractError(SimError):
    pass


class NotOwner(ContractError):
    pass


class ContractDisabled(ContractError):
    pass


class AlreadyRegistered(ContractError):
    pass


class UnknownScp(ContractError):
    pass


class InactiveScp(ContractError):
    pass


class UnknownQci(ContractError):
    pass


class ZeroDeficit(ContractError):
    pass


class NothingToWithdraw(ContractError):
    pass


class InsufficientEscrowForAccrual(ContractError):
    pass


class AlreadyDisabled(ContractError):
    pass


class NotDisabled(ContractError):
    pass


# --- scenario / tooling ---------------------------------------------------

class InvalidConfig(SimError, ValueError):
    """A JSON record or SLA term that does not read; a ``ValueError`` too, so
    replay reports a bad logged term as bad fields."""


class DigestMismatch(SimError):
    pass
