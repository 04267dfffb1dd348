package api

type Endpoint[Req, Resp any] struct{ Method, Path string }

func (ep *Endpoint[Req, Resp]) Call() {}

const (
	Prefix    = "/v1/"
	statePath = "/v1/state"
)

var (
	launch = &Endpoint[int, int]{Method: "POST", Path: "/v1/vms"}
	orphan = &Endpoint[int, int]{Method: "GET", Path: statePath}
	twice  = &Endpoint[int, int]{Method: "GET", Path: "/v1/nodes"}
	routes = []any{launch, orphan, twice}
)

var stray = &Endpoint[struct{}, int]{Method: "GET", Path: "/v1/stray"}

var helped = &Endpoint[int, int]{Method: "GET", Path: statePath}

type Client struct{}

func (Client) Launch()     { launch.Call() }
func (Client) Nodes()      { twice.Call() }
func (Client) NodesAgain() { twice.Call() }
func (Client) Stray()      { stray.Call() }

func get() { helped.Call() }
