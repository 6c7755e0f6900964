package policy

import (
	"memsim/internal/addrmap"
	"memsim/internal/channel"
)

// Organization is a channel organization's shape: Groups channel
// groups of geometry Group, each behind its own controller, with whole
// blocks striped across the groups.
type Organization struct {
	Groups int
	Group  addrmap.Geometry
}

// Capacity is the physical memory behind all groups.
func (o Organization) Capacity() uint64 { return o.Group.Capacity() * uint64(o.Groups) }

// Interleavings is the channel-organization registry. The empty name
// is the paper's "ganged" organization, one logical channel as wide as
// all of them; "independent" gives every channel its own controller
// (the Section 6 "complex interleaving" direction).
var Interleavings = NewRegistry[addrmap.Geometry, Organization]("channel-organization", "Interleaving", "ganged")

type interleavingScheme = Scheme[addrmap.Geometry, Organization]

func init() {
	Interleavings.Register("ganged", interleavingScheme{Build: func(g addrmap.Geometry) (Organization, error) {
		return Organization{Groups: 1, Group: g}, nil
	}})
	Interleavings.Register("independent", interleavingScheme{Build: func(g addrmap.Geometry) (Organization, error) {
		return Organization{Groups: g.Channels, Group: addrmap.Geometry{Channels: 1, DevicesPerChannel: g.DevicesPerChannel}}, nil
	}})
}

// NewOrganization splits the physical channels of g the named way.
func NewOrganization(name string, g addrmap.Geometry) (Organization, error) {
	return Interleavings.build(name, g)
}

// NewGroup builds one channel group of o: a channel configured as cc
// over the group geometry, with a fresh instance of the named bank
// timing (the row-reuse table is state no two channels may share), and
// the named address mapping over it. A system's private channels and a
// cluster's shared ones are all built here.
func (o Organization) NewGroup(mapping, bankTiming string, cc channel.Config) (*channel.Channel, addrmap.Mapper, error) {
	mapr, err := NewMapping(mapping, o.Group)
	if err != nil {
		return nil, nil, err
	}
	cc.Geometry = o.Group
	if cc.TimingPol, err = NewTiming(bankTiming, TimingParams{}); err != nil {
		return nil, nil, err
	}
	chn, err := channel.New(cc)
	return chn, mapr, err
}
