package policy

import "memsim/internal/addrmap"

// Mappings is the address-mapping registry: each scheme builds a
// Mapper for one channel-group geometry. The name is required.
var Mappings = NewRegistry[addrmap.Geometry, addrmap.Mapper]("address-mapping", "Mapping", "")

type mappingScheme = Scheme[addrmap.Geometry, addrmap.Mapper]

func init() {
	Mappings.Register("base", mappingScheme{Build: func(g addrmap.Geometry) (addrmap.Mapper, error) { return addrmap.NewBase(g) }})
	Mappings.Register("swap", mappingScheme{Build: func(g addrmap.Geometry) (addrmap.Mapper, error) { return addrmap.NewSwap(g) }})
	Mappings.Register("xor", mappingScheme{Build: func(g addrmap.Geometry) (addrmap.Mapper, error) { return addrmap.NewXOR(g) }})
}

// NewMapping builds the named mapper over g.
func NewMapping(name string, g addrmap.Geometry) (addrmap.Mapper, error) {
	return Mappings.build(name, g)
}
