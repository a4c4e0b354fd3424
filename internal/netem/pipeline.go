package netem

// Pipeline chains boxes in series: a packet sent to the pipeline traverses
// every box in order before reaching the pipeline's sink. An empty pipeline
// behaves like a Wire.
//
// Shell nesting in Mahimahi (`mm-delay 50 mm-link up down -- app`)
// corresponds to appending each inner shell's boxes to the pipelines of both
// directions.
type Pipeline struct {
	boxes []Box
	tail  *Wire // terminal element so SetSink works uniformly
}

// NewPipeline chains the given boxes in order.
func NewPipeline(boxes ...Box) *Pipeline {
	p := &Pipeline{tail: NewWire()}
	for _, b := range boxes {
		p.Append(b)
	}
	return p
}

// Append adds a box at the downstream end of the pipeline (just before the
// sink). Must not be called after traffic has started flowing. A train
// formed anywhere upstream continues through the whole pipeline.
func (p *Pipeline) Append(b Box) {
	if len(p.boxes) > 0 {
		p.boxes[len(p.boxes)-1].SetSink(b.Send)
	}
	b.SetSink(p.tail.Send)
	p.boxes = append(p.boxes, b)
}

// Send implements Box.
func (p *Pipeline) Send(pkts []*Packet) {
	if len(p.boxes) == 0 {
		p.tail.Send(pkts)
		return
	}
	p.boxes[0].Send(pkts)
}

// SetSink implements Box.
func (p *Pipeline) SetSink(sink Sink) { p.tail.SetSink(sink) }

// Stats implements Box: aggregate view where Arrived counts ingress to the
// first box and Delivered counts egress from the last.
func (p *Pipeline) Stats() BoxStats {
	agg := p.tail.Stats()
	var dropped uint64
	var arrived, arrivedBytes uint64
	if len(p.boxes) > 0 {
		first := p.boxes[0].Stats()
		arrived, arrivedBytes = first.Arrived, first.ArrivedBytes
		for _, b := range p.boxes {
			dropped += b.Stats().Dropped
		}
	} else {
		arrived, arrivedBytes = agg.Arrived, agg.ArrivedBytes
	}
	return BoxStats{
		Arrived:        arrived,
		ArrivedBytes:   arrivedBytes,
		Delivered:      agg.Delivered,
		DeliveredBytes: agg.DeliveredBytes,
		Dropped:        dropped,
	}
}

// Boxes returns the boxes in upstream-to-downstream order, for inspection.
func (p *Pipeline) Boxes() []Box { return p.boxes }

// Duplex is a bidirectional link: an uplink pipeline (client to server) and
// a downlink pipeline (server to client). Mahimahi maintains "a separate
// queue ... for packets traversing the link in each direction" (paper §2).
type Duplex struct {
	// Up carries packets from the inner (application) side to the outer
	// (world) side.
	Up *Pipeline
	// Down carries packets from the outer side to the inner side.
	Down *Pipeline
}

// NewDuplex pairs two pipelines into a bidirectional link.
func NewDuplex(up, down *Pipeline) *Duplex {
	if up == nil {
		up = NewPipeline()
	}
	if down == nil {
		down = NewPipeline()
	}
	return &Duplex{Up: up, Down: down}
}

// Nest places this duplex inside outer: traffic leaving this link uplink
// continues into outer's uplink, and traffic arriving from outer's downlink
// enters this link's downlink. It returns the combined duplex whose Up is
// inner.Up→outer.Up and Down is outer.Down→inner.Down.
func (d *Duplex) Nest(outer *Duplex) *Duplex {
	combinedUp := NewPipeline()
	combinedUp.Append(d.Up)
	combinedUp.Append(outer.Up)
	combinedDown := NewPipeline()
	combinedDown.Append(outer.Down)
	combinedDown.Append(d.Down)
	return &Duplex{Up: combinedUp, Down: combinedDown}
}
