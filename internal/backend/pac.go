package backend

import "repro/internal/ir"

// pacBackend is the MAC-authenticate-in-place backend (the PACTight /
// "PAC it up" family): instead of segregating code pointers into a safe
// region, the runtime signs them in place with a keyed MAC bound to the
// pointer value and its storage slot, and authenticates on load. There is
// no shadow memory at all — the metadata *is* the signed word — so the
// backend's memory footprint is zero; what it trades away is deterministic
// detection: a forgery that guesses the MAC (probability 2^-PacBits)
// authenticates, which the VM surfaces as Result.PacForgeryProb.
//
// The instrumented set is exactly CPS's (code and universal pointers,
// ScopeCode), and the same ir.ProtCPS/ProtUniversal flag bits mark it, so
// predecode-time handler selection and block compilation behave
// identically to cps; only the runtime enforcement hooks differ
// (vm.Config.Backend = "pac").
type pacBackend struct{}

func (pacBackend) Name() string    { return "pac" }
func (pacBackend) Scope() Scope    { return ScopeCode }
func (pacBackend) SafeStack() bool { return true }
func (pacBackend) MemOp(c Class, regAddr bool) ir.Prot {
	switch c {
	case ClassFuncPtr:
		return ir.ProtCPS
	case ClassUniversal:
		return ir.ProtCPS | ir.ProtUniversal
	}
	return 0
}
func (pacBackend) SetjmpFlags() ir.Prot   { return ir.ProtCPS }
func (pacBackend) SafeIntrFlags() ir.Prot { return ir.ProtSafeIntr }
func (pacBackend) MetadataFootprint() string {
	return "none (MAC embedded in the pointer word)"
}
