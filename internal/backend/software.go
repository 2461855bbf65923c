package backend

// SoftwareBackend runs the keystream on the host CPU via the registered
// cipher family's reference engine. Engines are required to be
// allocation-free in steady state (pooled workspaces) and safe for
// concurrent use, so this backend fans bulk work out over Workers
// goroutines sharing one engine.
type SoftwareBackend struct {
	base
}

// NewSoftware opens the software backend for any registered cipher.
func NewSoftware(cfg Config) (*SoftwareBackend, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, &Error{Backend: NameSoftware, Op: "open", Err: err}
	}
	eng, err := r.spec.NewEngine(r.inst, r.key)
	if err != nil {
		return nil, &Error{Backend: NameSoftware, Op: "open", Err: err}
	}
	b := &SoftwareBackend{}
	b.init(NameSoftware, r.scheme(), r.inst.Block, r.mod(), cfg.Workers)
	b.label = r.inst.Label
	b.kernel = eng.KeyStreamInto
	return b, nil
}
