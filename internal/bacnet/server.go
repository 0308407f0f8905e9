package bacnet

// PropertyStore is the device side of the protocol: the controller (or a
// test double) exposing its points.
type PropertyStore interface {
	// ReadProperty returns a point's present value.
	ReadProperty(obj ObjectID) (float64, uint8)
	// WriteProperty sets a point's present value, returning 0 or an error
	// code.
	WriteProperty(obj ObjectID, value float64) uint8
}

// Server answers legacy (unauthenticated) BACnet requests against a store.
// It is deliberately exactly as trusting as the protocols the paper
// criticises.
type Server struct {
	deviceID uint32
	store    PropertyStore
}

// NewServer builds a legacy server for one device.
func NewServer(deviceID uint32, store PropertyStore) *Server {
	return &Server{deviceID: deviceID, store: store}
}

// Handle processes one request PDU and returns the response PDU.
func (s *Server) Handle(req PDU) PDU {
	resp := PDU{InvokeID: req.InvokeID, Device: s.deviceID, Object: req.Object}
	if req.Device != s.deviceID {
		resp.Type = ErrorPDU
		resp.Code = CodeBadRequest
		return resp
	}
	switch req.Type {
	case ReadProperty:
		value, code := s.store.ReadProperty(req.Object)
		if code != 0 {
			resp.Type = ErrorPDU
			resp.Code = code
			return resp
		}
		resp.Type = Ack
		resp.Value = value
	case WriteProperty:
		if code := s.store.WriteProperty(req.Object, req.Value); code != 0 {
			resp.Type = ErrorPDU
			resp.Code = code
			return resp
		}
		resp.Type = Ack
		resp.Value = req.Value
	default:
		resp.Type = ErrorPDU
		resp.Code = CodeBadRequest
	}
	return resp
}

// AppendResponse processes one raw request PDU and appends the raw
// response to dst.
func (s *Server) AppendResponse(dst, frame []byte) []byte {
	req, err := DecodePDU(frame)
	if err != nil {
		return PDU{Type: ErrorPDU, Code: CodeBadRequest, Device: s.deviceID}.AppendEncode(dst)
	}
	return s.Handle(req).AppendEncode(dst)
}
